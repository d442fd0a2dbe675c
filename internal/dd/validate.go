package dd

import (
	"fmt"

	"qcec/internal/cn"
)

// Structural invariant checks.  These are debugging and property-test aids:
// every canonical DD must satisfy them at all times, so the test suite runs
// them after randomized operation sequences.

// ValidateV checks the canonicity invariants of a vector DD:
//
//  1. levels strictly decrease along every path (full chains, only zero
//     edges shortcut),
//  2. every node is normalized: some child carries weight exactly One and
//     no child weight magnitude exceeds it,
//  3. no node has two zero children,
//  4. every reachable node is present in the unique table (canonical).
func (p *Package) ValidateV(e VEdge) error {
	seen := make(map[VRef]bool)
	var walk func(e VEdge, parentLevel int) error
	walk = func(e VEdge, parentLevel int) error {
		if e.W == cn.Zero {
			if e.N != 0 {
				return fmt.Errorf("dd: zero edge with non-terminal node")
			}
			return nil
		}
		if e.N == 0 {
			if parentLevel != 0 {
				return fmt.Errorf("dd: non-zero terminal edge skips levels (parent level %d)", parentLevel)
			}
			return nil
		}
		v := p.vLv(e.N)
		if v >= parentLevel {
			return fmt.Errorf("dd: level %d not below parent %d", v, parentLevel)
		}
		if seen[e.N] {
			return nil
		}
		seen[e.N] = true
		if !p.vU.holds(p.vHashOf(e.N), uint32(e.N)) {
			return fmt.Errorf("dd: node at level %d missing from unique table", v)
		}
		hasOne := false
		for i := 0; i < 2; i++ {
			w := p.vE(e.N, i).W
			if w == cn.One {
				hasOne = true
			}
			if p.CN.Abs2(w) > 1+64*p.CN.Tolerance() {
				return fmt.Errorf("dd: child weight magnitude %g exceeds 1 at level %d", p.CN.Abs(w), v)
			}
		}
		if !hasOne {
			return fmt.Errorf("dd: node at level %d has no unit child weight", v)
		}
		if p.vE(e.N, 0).W == cn.Zero && p.vE(e.N, 1).W == cn.Zero {
			return fmt.Errorf("dd: node at level %d has two zero children", v)
		}
		for i := 0; i < 2; i++ {
			if err := walk(p.vE(e.N, i), v); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(e, p.n)
}

// ValidateM checks the same invariants for a matrix DD.
func (p *Package) ValidateM(e MEdge) error {
	seen := make(map[MRef]bool)
	var walk func(e MEdge, parentLevel int) error
	walk = func(e MEdge, parentLevel int) error {
		if e.W == cn.Zero {
			if e.N != 0 {
				return fmt.Errorf("dd: zero edge with non-terminal node")
			}
			return nil
		}
		if e.N == 0 {
			if parentLevel != 0 {
				return fmt.Errorf("dd: non-zero terminal edge skips levels (parent level %d)", parentLevel)
			}
			return nil
		}
		v := p.mLv(e.N)
		if v >= parentLevel {
			return fmt.Errorf("dd: level %d not below parent %d", v, parentLevel)
		}
		if seen[e.N] {
			return nil
		}
		seen[e.N] = true
		if !p.mU.holds(p.mHashOf(e.N), uint32(e.N)) {
			return fmt.Errorf("dd: node at level %d missing from unique table", v)
		}
		hasOne := false
		allZero := true
		for i := 0; i < 4; i++ {
			w := p.mE(e.N, i).W
			if w == cn.One {
				hasOne = true
			}
			if w != cn.Zero {
				allZero = false
			}
			if p.CN.Abs2(w) > 1+64*p.CN.Tolerance() {
				return fmt.Errorf("dd: child weight magnitude %g exceeds 1 at level %d", p.CN.Abs(w), v)
			}
		}
		if !hasOne {
			return fmt.Errorf("dd: node at level %d has no unit child weight", v)
		}
		if allZero {
			return fmt.Errorf("dd: node at level %d has four zero children", v)
		}
		for i := 0; i < 4; i++ {
			if err := walk(p.mE(e.N, i), v); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(e, p.n)
}
