package workload

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestMixRatios(t *testing.T) {
	for _, mix := range append(MemslapMixes(), YCSBMixes()...) {
		sum := mix.Read + mix.Update + mix.Insert + mix.RMW + mix.Scan
		if sum != 100 {
			t.Errorf("%s: ratios sum to %d", mix.Name, sum)
		}
		if err := mix.Validate(); err != nil {
			t.Errorf("%s: preset mix rejected: %v", mix.Name, err)
		}
	}
}

func TestMixValidateRejectsMalformed(t *testing.T) {
	cases := []Mix{
		{Name: "under", Read: 50, Update: 10},            // sums to 60
		{Name: "over", Read: 90, Update: 20},             // sums to 110
		{Name: "neg", Read: 120, Update: -20},            // sums to 100 but negative
		{Name: "empty"},                                  // sums to 0
		{Name: "neg-scan", Read: 100, Scan: -0x7fffffff}, // negative overflow bait
	}
	for _, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed mix %+v", m.Name, m)
		}
		if _, err := NewGenerator(m, 100, 1); err == nil {
			t.Errorf("%s: NewGenerator accepted malformed mix %+v", m.Name, m)
		}
	}
}

func TestGeneratorRespectsMix(t *testing.T) {
	mix := Mix{Name: "t", Read: 90, Update: 10}
	g, err := NewGenerator(mix, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[OpKind]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	readFrac := float64(counts[OpRead]) / n
	if readFrac < 0.88 || readFrac > 0.92 {
		t.Errorf("read fraction = %.3f, want ~0.90", readFrac)
	}
	if counts[OpInsert] != 0 || counts[OpScan] != 0 {
		t.Errorf("unexpected ops: %v", counts)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1, err := NewGenerator(YCSBMixes()[0], 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(YCSBMixes()[0], 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("op %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func TestInsertsUseFreshKeys(t *testing.T) {
	g, err := NewGenerator(Mix{Name: "i", Insert: 100}, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		op := g.Next()
		if op.Key < 100 {
			t.Fatalf("insert reused preloaded key %d", op.Key)
		}
		if seen[op.Key] {
			t.Fatalf("insert key %d repeated", op.Key)
		}
		seen[op.Key] = true
	}
}

// Regression: inserts must grow the readable key space.  Before the
// fix, reads drew from the fixed initial [0, keys) while inserts
// allocated from nextIns upward, so YCSB-D ("insert, then read mostly
// recent") never read a single inserted record.
func TestReadsReachInsertedKeys(t *testing.T) {
	var ycsbD Mix
	for _, m := range YCSBMixes() {
		if m.Name == "YCSB-D" {
			ycsbD = m
		}
	}
	if ycsbD.Name == "" {
		t.Fatal("YCSB-D preset missing")
	}
	const initial = 100
	g, err := NewGenerator(ycsbD, initial, 11)
	if err != nil {
		t.Fatal(err)
	}
	inserted, readInserted := 0, 0
	for i := 0; i < 50000; i++ {
		op := g.Next()
		switch op.Kind {
		case OpInsert:
			inserted++
		case OpRead:
			if op.Key >= initial {
				readInserted++
			}
		}
	}
	if inserted == 0 {
		t.Fatal("YCSB-D issued no inserts in 50k ops")
	}
	if readInserted == 0 {
		t.Errorf("YCSB-D read 0 inserted keys across 50k ops (%d inserts issued)", inserted)
	}
}

// Statistical check: observed op frequencies match the mix ratios
// within tolerance for every preset.
func TestGeneratorFrequenciesMatchMix(t *testing.T) {
	for _, mix := range append(MemslapMixes(), YCSBMixes()...) {
		g, err := NewGenerator(mix, 1000, 99)
		if err != nil {
			t.Fatal(err)
		}
		const n = 50000
		counts := map[OpKind]int{}
		for i := 0; i < n; i++ {
			counts[g.Next().Kind]++
		}
		want := map[OpKind]int{
			OpRead: mix.Read, OpUpdate: mix.Update, OpInsert: mix.Insert,
			OpRMW: mix.RMW, OpScan: mix.Scan,
		}
		for kind, pct := range want {
			got := 100 * float64(counts[kind]) / n
			if diff := got - float64(pct); diff < -1.5 || diff > 1.5 {
				t.Errorf("%s: %v frequency %.2f%%, want %d%% ±1.5", mix.Name, kind, got, pct)
			}
		}
	}
}

// Zipf skew sanity: at theta 0.99 the top 1% of keys should receive a
// large majority of draws (theoretical share ≈ 50% for n=10^4; assert
// a conservative floor well above the 1% uniform share).
func TestZipfTopPercentDominates(t *testing.T) {
	const n = 10000
	z := NewZipf(n, 0.99, 13)
	counts := make([]int, n)
	const draws = 300000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := 0
	for _, c := range counts[:n/100] {
		top += c
	}
	if share := float64(top) / draws; share < 0.35 {
		t.Errorf("top-1%% of keys drew %.1f%% of accesses, want ≥35%% at theta 0.99", 100*share)
	}
}

func TestZipfInRangeAndSkewed(t *testing.T) {
	const n = 1000
	z := NewZipf(n, 0.99, 7)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k >= n {
			t.Fatalf("zipf out of range: %d", k)
		}
		counts[k]++
	}
	// Skew: the most popular key should absorb far more than uniform
	// share (uniform = draws/n = 200).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 10*draws/n {
		t.Errorf("zipf max popularity %d too uniform", max)
	}
}

func TestValueDeterministic(t *testing.T) {
	if err := quick.Check(func(key uint64) bool {
		a := Value(key, 64)
		b := Value(key, 64)
		if len(a) != 64 {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}
