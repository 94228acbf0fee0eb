package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepmc/internal/faultinj"
	"deepmc/internal/ir"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestDynamicGolden pins the dynamic run's report bytes (text and JSON)
// for entry main over every testdata program, under the default
// configuration, the cxl contract and a disabled dynamic detector, plus
// one fault-injected run whose injection log is pinned alongside.
// Regenerate with: go test ./internal/core -run TestDynamicGolden -update
func TestDynamicGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.pir"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	variants := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"cxl", Config{PModel: "cxl"}},
		{"no-d01", Config{DisablePasses: []string{"DMC-D01"}}},
	}
	type tcase struct {
		golden string
		path   string
		cfg    Config
		faults *faultinj.Config
	}
	var cases []tcase
	for _, p := range paths {
		stem := strings.TrimSuffix(filepath.Base(p), ".pir")
		for _, v := range variants {
			cases = append(cases, tcase{stem + "_" + v.name, p, v.cfg, nil})
		}
	}
	cases = append(cases, tcase{"clean_faults-all-seed7", filepath.Join("..", "..", "testdata", "clean.pir"), Config{},
		&faultinj.Config{Classes: faultinj.AllClasses(), Rate: 1, Seed: 7}})

	for _, tc := range cases {
		src, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		rep, sched, err := RunDynamic(context.Background(), m, tc.cfg, "main", tc.faults)
		if err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got := rep.String() + string(js) + "\n"
		if sched != nil {
			got += fmt.Sprintf("%d faults injected; schedule:\n%s", sched.Injections(), sched.Log())
		}
		path := filepath.Join("testdata", "dynamic", tc.golden+".golden")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", tc.golden, err)
		}
		if got != string(want) {
			t.Errorf("%s: dynamic report differs from golden file\n--- got:\n%s--- want:\n%s", tc.golden, got, want)
		}
	}
}
