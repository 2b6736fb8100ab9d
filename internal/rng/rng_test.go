package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("streams with equal seed diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincide %d/100 times", same)
	}
}

func TestLabeledStreamsIndependent(t *testing.T) {
	a := NewLabeled(7, "topology")
	b := NewLabeled(7, "source")
	c := NewLabeled(7, "topology")
	if a.Uint64() != c.Uint64() {
		t.Fatal("identical labels must produce identical streams")
	}
	if a.Uint64() == b.Uint64() {
		t.Fatal("different labels should produce different streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(23)
	sum := 0.0
	const trials = 200000
	for i := 0; i < trials; i++ {
		sum += r.Float64()
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestRange(t *testing.T) {
	r := New(29)
	for i := 0; i < 5000; i++ {
		v := r.Range(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Range(-3,7) = %g out of bounds", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(31)
	const trials = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f far from 1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(37)
	const trials = 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate %g negative", v)
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %.4f far from 1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	for _, n := range []int{0, 1, 2, 5, 33, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(47)
	const trials = 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / trials
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit fraction %.4f", frac)
	}
}

// Property: Intn never escapes its bound, for arbitrary seeds and bounds.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound)%1000 + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: equal seeds give equal sequences; splitting is deterministic too.
func TestQuickSplitDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a := New(seed).Split()
		b := New(seed).Split()
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
