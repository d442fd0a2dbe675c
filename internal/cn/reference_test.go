package cn

import (
	"math"
	"math/rand"
	"testing"
)

// refTable is the previous map-backed weight table, kept as a reference
// model: buckets map a quantised key to its entries in insertion order, and
// a lookup scans the 3x3 neighbourhood (real offset outer, imaginary offset
// inner) for the first entry within tolerance.  Zero and One are ids 0 and
// 1, every new value takes the next id.
type refTable struct {
	tol     float64
	vals    []complex128
	buckets map[bucketKey][]Ref
}

func newRefTable(tol float64) *refTable {
	r := &refTable{tol: tol, buckets: make(map[bucketKey][]Ref)}
	r.insert(0)
	r.insert(1)
	return r
}

func (r *refTable) key(c complex128) bucketKey {
	return bucketKey{
		re: int64(math.Floor(real(c) / r.tol)),
		im: int64(math.Floor(imag(c) / r.tol)),
	}
}

func (r *refTable) approx(a, b complex128) bool {
	return math.Abs(real(a)-real(b)) <= r.tol && math.Abs(imag(a)-imag(b)) <= r.tol
}

func (r *refTable) insert(c complex128) Ref {
	id := Ref(len(r.vals))
	r.vals = append(r.vals, c)
	k := r.key(c)
	r.buckets[k] = append(r.buckets[k], id)
	return id
}

func (r *refTable) lookup(c complex128) Ref {
	if r.approx(c, 0) {
		return Zero
	}
	if r.approx(c, 1) {
		return One
	}
	k := r.key(c)
	for dr := int64(-1); dr <= 1; dr++ {
		for di := int64(-1); di <= 1; di++ {
			for _, id := range r.buckets[bucketKey{k.re + dr, k.im + di}] {
				if r.approx(r.vals[id], c) {
					return id
				}
			}
		}
	}
	return r.insert(c)
}

// checkAgainstRef feeds the same input sequence to a Table and the
// reference model and requires identical ids and identical stored values.
func checkAgainstRef(t *testing.T, tol float64, inputs []complex128) {
	t.Helper()
	tab, ref := NewTable(tol), newRefTable(tol)
	for i, c := range inputs {
		got, want := tab.Lookup(c), ref.lookup(c)
		if got != want {
			t.Fatalf("input %d (%v): ref %d, reference model %d", i, c, got, want)
		}
	}
	if tab.Size() != len(ref.vals) {
		t.Fatalf("size %d, reference model %d", tab.Size(), len(ref.vals))
	}
	for id, c := range ref.vals {
		if tab.Value(Ref(id)) != c {
			t.Fatalf("ref %d holds %v, reference model %v", id, tab.Value(Ref(id)), c)
		}
	}
}

func TestLookupMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var in []complex128
	for i := 0; i < 20000; i++ {
		c := complex(rng.Float64()*2-1, rng.Float64()*2-1)
		in = append(in, c)
		if i%3 == 0 { // revisit an earlier value with sub-tolerance noise
			prev := in[rng.Intn(len(in))]
			in = append(in, prev+complex((rng.Float64()-0.5)*2e-10, (rng.Float64()-0.5)*2e-10))
		}
	}
	checkAgainstRef(t, DefaultTolerance, in)
}

// Values on and around quantisation boundaries, where the matching entry
// sits in a neighbouring bucket.
func TestLookupMatchesReferenceBoundaries(t *testing.T) {
	const tol = 1e-9
	rng := rand.New(rand.NewSource(12))
	var in []complex128
	for i := 0; i < 4000; i++ {
		kr, ki := float64(rng.Intn(200)-100), float64(rng.Intn(200)-100)
		for _, dr := range []float64{-0.5, -0.25, 0, 0.25, 0.5, 1} {
			for _, di := range []float64{-0.5, 0, 0.5} {
				in = append(in, complex((kr+dr)*tol*10, (ki+di)*tol*10))
				in = append(in, complex(kr*tol+dr*tol, ki*tol+di*tol))
			}
		}
	}
	checkAgainstRef(t, tol, in)
}

// Inputs within tolerance of two distinct entries: the first entry in scan
// order must win, exactly as in the reference model.
func TestLookupMatchesReferenceTwoCandidates(t *testing.T) {
	const tol = 1e-9
	rng := rand.New(rand.NewSource(13))
	var in []complex128
	for i := 0; i < 3000; i++ {
		base := complex(float64(rng.Intn(1000))*tol*7+0.3, float64(rng.Intn(1000))*tol*7-0.2)
		a := base + complex(-0.9*tol, 0.4*tol)
		b := base + complex(0.9*tol, -0.4*tol)
		// a and b are 1.8 tol apart on the real axis: two entries.  The
		// probes lie within tolerance of both.
		in = append(in, b, a, base, base+complex(0.05*tol, 0), base+complex(0, -0.5*tol))
	}
	checkAgainstRef(t, tol, in)
}

// Growth must preserve every id and every bucket's insertion order, through
// several doublings of the index.
func TestLookupGrowth(t *testing.T) {
	tab := NewDefault()
	startSlots := len(tab.index)
	var refs []Ref
	for i := 0; i < 50000; i++ {
		refs = append(refs, tab.Lookup(complex(float64(i)*1e-6+0.5, -float64(i)*3e-7)))
	}
	if len(tab.index) <= 4*startSlots {
		t.Fatalf("index did not grow: %d slots", len(tab.index))
	}
	if 2*(tab.Size()-2) > len(tab.index) {
		t.Fatalf("index over half full: %d entries, %d slots", tab.Size()-2, len(tab.index))
	}
	for i, r := range refs {
		if got := tab.Lookup(complex(float64(i)*1e-6+0.5, -float64(i)*3e-7)); got != r {
			t.Fatalf("entry %d: ref %d after growth, was %d", i, got, r)
		}
	}
}

func TestAgreementTolerance(t *testing.T) {
	for _, tc := range []struct{ weightTol, want float64 }{
		{0, 1e-6}, // DefaultTolerance
		{1e-10, 1e-6},
		{1e-8, 1e-4},
		{1e-12, 1e-8},
		{1.0, 1e-3}, // capped
	} {
		if got := AgreementTolerance(tc.weightTol); got != tc.want {
			t.Errorf("AgreementTolerance(%g) = %g, want %g", tc.weightTol, got, tc.want)
		}
	}
}
