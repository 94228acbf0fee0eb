package dynamic_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deepmc/internal/dynamic"
	"deepmc/internal/ir"
)

// replayColliding drives one deterministic access pattern — strands,
// fences, locks, reads, writes, flushes — against a checker.  Addresses
// come from 64 values 1 KiB apart: they collide often enough to race,
// and they span 16 shadow segments, so the per-strand segment cache
// misses and refills.
func replayColliding(c *dynamic.Checker, seed int64, events int) {
	rng := rand.New(rand.NewSource(seed))
	locks := []string{"lockA", "lockB", "lockC"}
	for i := 0; i < events; i++ {
		id := int64(1 + rng.Intn(4))
		addr := uint64(rng.Intn(64)) << 10
		at := &ir.Site{Func: "fn", File: "file.go", Line: i}
		switch rng.Intn(10) {
		case 0:
			c.StrandBegin(id)
		case 1:
			c.StrandEnd(id)
		case 2:
			c.GlobalFence()
		case 3:
			c.Acquire(id, locks[rng.Intn(len(locks))])
		case 4:
			c.Release(id, locks[rng.Intn(len(locks))])
		case 5, 6:
			c.Write(id, addr, true, at)
		case 7:
			c.Flush(id, addr, true, at)
		default:
			c.Read(id, addr, true, at)
		}
	}
}

// TestLayoutGolden pins the checker's verdicts on a racy access
// pattern: the reports (DMC-D01, DMC-D02 and DMC-D03 warnings) and the
// StatsSnapshot of five seeds.  The golden was first written by two
// shadow layouts that agreed byte for byte, a single global mutex
// without the segment cache and the 64-stripe directory with it, so a
// change to the shadow directory or the segment cache that alters a
// verdict shows up here.
// Regenerate with: go test ./internal/dynamic -run TestLayoutGolden -update
func TestLayoutGolden(t *testing.T) {
	var b strings.Builder
	for seed := int64(1); seed <= 5; seed++ {
		c := dynamic.NewChecker()
		replayColliding(c, seed, 4000)
		fmt.Fprintf(&b, "seed %d: %+v\n%s", seed, c.StatsSnapshot(), c.Report())
	}
	got := b.String()
	path := filepath.Join("testdata", "layout.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("checker verdicts differ from %s\n--- got:\n%s--- want:\n%s", path, got, want)
	}
}
