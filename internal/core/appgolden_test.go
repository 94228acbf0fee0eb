package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const appGolden = "testdata/apps.golden"

// TestGoldenAppReports pins the static report bytes (text and JSON) of
// three generated apps under every persistency model, both contracts,
// root-only and all-function checking, at the default trace budget and
// at one tight enough to truncate most root traces.  The generated apps
// reach the budget-truncated, duplicate-heavy root trace sets that the
// corpus programs never produce, so a scan-side shortcut that changes a
// finding or its surviving message shows up here.
// Under the race detector only app50's rows are checked.
// Regenerate with: go test ./internal/core -run TestGoldenAppReports -update
func TestGoldenAppReports(t *testing.T) {
	apps := []AppSpec{
		{Name: "app50", Funcs: 50, CallDepth: 3, Seed: 1},
		{Name: "app194", Funcs: 194, CallDepth: 3, Seed: 21},
		{Name: "app335", Funcs: 335, CallDepth: 3, Seed: 44},
	}
	if raceEnabled && !*update {
		apps = apps[:1]
	}
	budgets := []struct {
		name       string
		maxEntries int
		maxPaths   int
	}{
		{"default", 0, 0},
		{"tight", 64, 8},
	}
	var b strings.Builder
	for _, spec := range apps {
		m := GenerateApp(spec)
		for _, model := range []string{"strict", "epoch", "strand"} {
			for _, pmodel := range []string{"x86", "cxl"} {
				for _, all := range []bool{false, true} {
					for _, bud := range budgets {
						cfg := Config{Model: model, PModel: pmodel, AllFunctions: all,
							MaxTraceEntries: bud.maxEntries, MaxPaths: bud.maxPaths}
						rep, err := Analyze(m, cfg)
						if err != nil {
							t.Fatalf("%s %s/%s: %v", spec.Name, model, pmodel, err)
						}
						js, err := rep.JSON()
						if err != nil {
							t.Fatal(err)
						}
						sum := sha256.Sum256([]byte(rep.String() + string(js)))
						scope := "roots"
						if all {
							scope = "all"
						}
						fmt.Fprintf(&b, "%s %s %s %s %s %d %s\n", spec.Name, model, pmodel, scope, bud.name,
							len(rep.Warnings), hex.EncodeToString(sum[:]))
					}
				}
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(appGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(appGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(appGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		for _, spec := range apps {
			if strings.HasPrefix(line, spec.Name+" ") {
				want.WriteString(line)
			}
		}
	}
	if got != want.String() {
		t.Errorf("generated-app report digests differ from %s\n--- got:\n%s--- want:\n%s", appGolden, got, want.String())
	}
}
