package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"deepmc/internal/anacache"
	"deepmc/internal/core"
	"deepmc/internal/corpus"
	"deepmc/internal/ir"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int // tenths of a percent
		ok   bool
	}{
		{19, 0, false}, // even the median has only 9 samples beyond it
		{20, 500, true},
		{39, 500, true}, // p75 would have 9 beyond
		{40, 750, true},
		{100, 900, true},
		{199, 900, true},
		{200, 950, true},
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	lat := make([]float64, 19)
	if _, err := summarize(lat); err == nil {
		t.Error("summarize accepted 19 samples")
	}
	lat = make([]float64, 40)
	for i := range lat {
		lat[i] = float64(40 - i) // 1..40 in reverse
	}
	s, err := summarize(lat)
	if err != nil {
		t.Fatal(err)
	}
	if s.P50 != 20 || s.Tail != 30 || s.TailPct != 75 || s.Samples != 40 {
		t.Errorf("summarize = %+v; want p50 20, p75 30 over 40 samples", s)
	}
}

func TestNeutralEditKeepsReportBytes(t *testing.T) {
	bases, ok, err := loadBases()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("corpus batch reports do not match the ground truth")
	}
	opts, enabled, err := staticOptions("strict")
	if err != nil {
		t.Fatal(err)
	}
	traceFacts, verdictFacts := cacheFacts(opts, enabled)
	for bi, b := range bases {
		m0, err := ir.Parse(b.source)
		if err != nil {
			t.Fatal(err)
		}
		fp0 := anacache.Fingerprint(m0, traceFacts, verdictFacts)
		if len(b.points) == 0 {
			t.Fatalf("base %d: no edit points", bi)
		}
		for _, pt := range b.points {
			text := neutralEdit(b.source, pt.at, 12345)
			m, err := ir.Parse(text)
			if err != nil {
				t.Fatalf("base %d, edit of %s: %v", bi, pt.fn, err)
			}
			fp := anacache.Fingerprint(m, traceFacts, verdictFacts)
			if fp.Trace[pt.fn] == fp0.Trace[pt.fn] {
				t.Errorf("base %d: editing %s left its fingerprint unchanged", bi, pt.fn)
			}
			rep, err := core.Analyze(m, core.Config{Model: b.model})
			if err != nil {
				t.Fatal(err)
			}
			body, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(body) != string(b.report) {
				t.Errorf("base %d: editing %s changed the report", bi, pt.fn)
			}
		}
	}
}

func TestLayeredPipelineEqualsCore(t *testing.T) {
	type input struct {
		name, model, text string
	}
	var inputs []input
	for _, p := range corpus.All() {
		inputs = append(inputs, input{p.Name, p.Model.String(), p.Source})
	}
	gen := core.GenerateApp(core.AppSpec{Name: "gen", Funcs: 60, CallDepth: 3, Seed: 5})
	inputs = append(inputs, input{"generated", "strict", ir.Print(gen)})
	cache, err := anacache.New("")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		m, err := ir.Parse(in.text)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Analyze(m, core.Config{Model: in.model, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]float64{}
		tr := newTracer()
		// Cold, then through the cache twice: a cold miss and a warm hit.
		for _, c := range []*anacache.Cache{nil, cache, cache} {
			got, _, err := layeredAnalyze(tr, 0, in.text, in.model, c, counts)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s: layered pipeline (cache %v) differs from core.Analyze", in.name, c != nil)
			}
		}
		if tr.totals()["trace.collect"] == nil {
			t.Errorf("%s: no trace.collect span recorded", in.name)
		}
	}
}

func TestTimingTrackerForwardsEveryCall(t *testing.T) {
	w := &soakTracked{p: params{seed: 3, seconds: 1, scale: 1}, batches: 2}
	plain, err := w.open(true, false)
	if err != nil {
		t.Fatal(err)
	}
	timed, err := w.open(true, true)
	if err != nil {
		t.Fatal(err)
	}
	// One client at a time, in the same order, so both checkers see the
	// same event stream.
	for b := 0; b < 4; b++ {
		for c := 0; c < soakClients; c++ {
			if err := plain.batch(plain.clients[c]); err != nil {
				t.Fatal(err)
			}
			if err := timed.batch(timed.clients[c]); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, got := plain.checker.C.StatsSnapshot(), timed.checker.C.StatsSnapshot()
	if want != got {
		t.Errorf("checker stats differ behind the timing tracker: %+v vs %+v", want, got)
	}
	tt := timed.timing
	if n := uint64(tt.writes.Load()); n != got.Writes {
		t.Errorf("timing tracker counted %d writes, checker saw %d", n, got.Writes)
	}
	if tt.writes.Load() == 0 || tt.writeNs.Load() <= 0 {
		t.Error("timing tracker recorded no write time")
	}
	r1, err := plain.checker.C.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := timed.checker.C.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(r1) != string(r2) {
		t.Error("checker reports differ behind the timing tracker")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// and the metrics this program prints identical.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the program has %d workloads", names, len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		var got []metricDef
		for _, m := range listed {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, defs) {
			t.Errorf("%s metrics in BENCHMARK.json differ from the program's:\n%v\n%v", kind, got, defs)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
