package cn

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroOneCanonical(t *testing.T) {
	tab := NewDefault()
	if tab.Lookup(0) != Zero {
		t.Fatal("Lookup(0) did not return canonical Zero")
	}
	if tab.Lookup(1) != One {
		t.Fatal("Lookup(1) did not return canonical One")
	}
	if tab.Value(Zero) != 0 {
		t.Fatalf("Zero holds %v", tab.Value(Zero))
	}
	if tab.Value(One) != 1 {
		t.Fatalf("One holds %v", tab.Value(One))
	}
}

func TestSnapToZeroAndOne(t *testing.T) {
	tab := NewDefault()
	eps := tab.Tolerance() / 2
	if tab.Lookup(complex(eps, -eps)) != Zero {
		t.Error("value within tolerance of 0 did not snap to Zero")
	}
	if tab.Lookup(complex(1-eps, eps)) != One {
		t.Error("value within tolerance of 1 did not snap to One")
	}
}

func TestInterningWithinTolerance(t *testing.T) {
	tab := NewDefault()
	base := complex(0.70710678118, -0.5)
	a := tab.Lookup(base)
	b := tab.Lookup(base + complex(tab.Tolerance()/3, 0))
	c := tab.Lookup(base + complex(0, -tab.Tolerance()/3))
	if a != b || a != c {
		t.Error("values within tolerance interned to distinct refs")
	}
	d := tab.Lookup(base + complex(10*tab.Tolerance(), 0))
	if a == d {
		t.Error("clearly distinct values interned to the same ref")
	}
}

func TestBucketBoundary(t *testing.T) {
	// Two values straddling a quantization bucket boundary but within
	// tolerance of each other must still intern to one entry.
	tab := NewTable(1e-9)
	w := tab.Tolerance()
	x := 5 * w // exactly on a bucket boundary
	a := tab.Lookup(complex(x-w/4, 0))
	b := tab.Lookup(complex(x+w/4, 0))
	if a != b {
		t.Error("boundary-straddling values were not merged")
	}
}

func TestArithmeticHelpers(t *testing.T) {
	tab := NewDefault()
	a := tab.Lookup(complex(0.5, 0.25))
	b := tab.Lookup(complex(-0.125, 2))

	av, bv := tab.Value(a), tab.Value(b)
	if got := tab.Value(tab.Mul(a, b)); cmplx.Abs(got-av*bv) > 1e-9 {
		t.Errorf("Mul = %v", got)
	}
	if got := tab.Value(tab.Add(a, b)); cmplx.Abs(got-(av+bv)) > 1e-9 {
		t.Errorf("Add = %v", got)
	}
	if got := tab.Value(tab.Div(a, b)); cmplx.Abs(got-av/bv) > 1e-9 {
		t.Errorf("Div = %v", got)
	}
	if got := tab.Value(tab.Neg(a)); got != -av {
		t.Errorf("Neg = %v", got)
	}
	if got := tab.Value(tab.Conj(a)); got != cmplx.Conj(av) {
		t.Errorf("Conj = %v", got)
	}

	// Identity shortcuts.
	if tab.Mul(One, b) != b || tab.Mul(b, One) != b {
		t.Error("Mul by One must return the operand ref")
	}
	if tab.Mul(Zero, b) != Zero {
		t.Error("Mul by Zero must return Zero")
	}
	if tab.Add(Zero, b) != b {
		t.Error("Add of Zero must return the operand ref")
	}
	if tab.Conj(tab.LookupReal(0.75)) != tab.LookupReal(0.75) {
		t.Error("Conj of a real value must return the same ref")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	tab := NewDefault()
	defer func() {
		if recover() == nil {
			t.Error("Div by Zero did not panic")
		}
	}()
	tab.Div(One, Zero)
}

func TestInvalidTolerancePanics(t *testing.T) {
	for _, tol := range []float64{0, -1e-9, 0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%g) did not panic", tol)
				}
			}()
			NewTable(tol)
		}()
	}
}

func TestStats(t *testing.T) {
	tab := NewDefault()
	tab.Lookup(complex(0.3, 0.4))
	tab.Lookup(complex(0.3, 0.4))
	lookups, hits := tab.Stats()
	if lookups != 2 || hits != 1 {
		t.Errorf("lookups=%d hits=%d, want 2 and 1", lookups, hits)
	}
}

func TestIDsAreUnique(t *testing.T) {
	tab := NewDefault()
	seen := make(map[Ref]bool)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		v := tab.Lookup(complex(rng.Float64()*2-1, rng.Float64()*2-1))
		if int(v) >= tab.Size() {
			t.Fatalf("ref %d out of range (size %d)", v, tab.Size())
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatal("interning collapsed everything; suspicious")
	}
}

// Property: Lookup is idempotent — looking up the numeric value of an
// interned entry returns the same ref.
func TestQuickLookupIdempotent(t *testing.T) {
	tab := NewDefault()
	f := func(re, im float64) bool {
		re = math.Mod(re, 4)
		im = math.Mod(im, 4)
		if math.IsNaN(re) || math.IsNaN(im) {
			return true
		}
		v := tab.Lookup(complex(re, im))
		return tab.Lookup(tab.Value(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: interned value is within tolerance of the requested value.
func TestQuickLookupWithinTolerance(t *testing.T) {
	tab := NewDefault()
	f := func(re, im float64) bool {
		re = math.Mod(re, 4)
		im = math.Mod(im, 4)
		if math.IsNaN(re) || math.IsNaN(im) {
			return true
		}
		c := complex(re, im)
		v := tab.Lookup(c)
		return math.Abs(real(tab.Value(v))-re) <= tab.Tolerance() &&
			math.Abs(imag(tab.Value(v))-im) <= tab.Tolerance()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAbsHelpers(t *testing.T) {
	tab := NewDefault()
	v := tab.Lookup(complex(3, 4))
	if tab.Abs(v) != 5 {
		t.Errorf("Abs = %g", tab.Abs(v))
	}
	if tab.Abs2(v) != 25 {
		t.Errorf("Abs2 = %g", tab.Abs2(v))
	}
}

func TestStringFormat(t *testing.T) {
	tab := NewDefault()
	if s := tab.Format(tab.Lookup(complex(1, -1))); s != "1-1i" {
		t.Errorf("Format = %q", s)
	}
}

func TestNonFiniteLookupPanics(t *testing.T) {
	tab := NewDefault()
	for _, c := range []complex128{
		complex(math.NaN(), 0),
		complex(0, math.NaN()),
		complex(math.Inf(1), 0),
		complex(0, math.Inf(-1)),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Lookup(%v) did not panic", c)
				}
			}()
			tab.Lookup(c)
		}()
	}
}
