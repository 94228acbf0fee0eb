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
	"deepmc/internal/report"
)

// cellAddrs is the address pool of TestCellsGolden: every aligned word
// of one segment, so that segment's shadow table passes through every
// size, then unaligned addresses several of which share a word, then
// words and halfwords on both sides of a segment edge.
func cellAddrs() []uint64 {
	var addrs []uint64
	for w := uint64(0); w < 512; w++ {
		addrs = append(addrs, 0x10000+8*w)
	}
	for b := uint64(0); b < 24; b++ {
		addrs = append(addrs, 0x20003+5*b)
	}
	return append(addrs, 0x30ff0, 0x30ff8, 0x30ffc, 0x31000, 0x31004, 0x31008)
}

// replayCells drives one seeded history through c in three phases,
// with six strands open throughout.  First strand 1 writes every
// address of the pool in a shuffled order.  Then, after a fence, four
// reader strands read one cell in shuffled order before strand 6
// writes it at one site: the warning kept for that site is the race
// with the first reader.  Last come mixed random events from the six
// strands, a quarter of them on volatile memory, half on a hot subset
// of the pool and half on any address in it.
func replayCells(c *dynamic.Checker, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	addrs := cellAddrs()
	hot := append(append([]uint64(nil), addrs[:16]...), addrs[512:]...)
	line := 0
	at := func() *ir.Site {
		line++
		return &ir.Site{Func: "fn", File: "cells.go", Line: line}
	}
	for id := int64(1); id <= 6; id++ {
		c.StrandBegin(id)
	}
	for _, i := range rng.Perm(len(addrs)) {
		c.Write(1, addrs[i], true, at())
	}
	for round := 0; round < 6; round++ {
		addr := hot[rng.Intn(len(hot))]
		c.Write(5, addr, true, at())
		if round%2 == 0 {
			c.Flush(5, addr, true, at())
		}
		c.GlobalFence()
		for _, r := range rng.Perm(4) {
			c.Read(int64(r+1), addr, true, at())
		}
		c.Read(int64(1+rng.Intn(4)), addr, true, at()) // a re-read keeps its strand's place
		c.Write(6, addr, true, at())
	}
	locks := []string{"lockA", "lockB"}
	for i := 0; i < 3000; i++ {
		id := int64(1 + rng.Intn(6))
		addr := addrs[rng.Intn(len(addrs))]
		if rng.Intn(2) == 0 {
			addr = hot[rng.Intn(len(hot))]
		}
		persistent := rng.Intn(4) != 0
		switch rng.Intn(12) {
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
		case 5, 6, 7:
			c.Write(id, addr, persistent, at())
		case 8:
			c.Flush(id, addr, persistent, at())
		default:
			c.Read(id, addr, persistent, at())
		}
	}
}

// TestCellsGolden pins the checker's verdicts and StatsSnapshot on the
// address shapes a shadow table must place exactly: unaligned
// addresses, both sides of a segment edge, one fully dense segment, and
// several readers of one cell before a write, under the default
// configuration, TrackAll with volatile addresses, and DMC-D03
// disabled (its races degrade to DMC-D02).
// Regenerate with: go test ./internal/dynamic -run TestCellsGolden -update
func TestCellsGolden(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		set  func(*dynamic.Checker)
	}{
		{"default", 1, func(*dynamic.Checker) {}},
		{"default", 2, func(*dynamic.Checker) {}},
		{"trackall", 3, func(c *dynamic.Checker) { c.TrackAll = true }},
		{"no-d03", 4, func(c *dynamic.Checker) { c.Disabled = map[string]bool{report.CodeDynUnflushedRAW: true} }},
	}
	var b strings.Builder
	for _, tc := range cases {
		c := dynamic.NewChecker()
		tc.set(c)
		replayCells(c, tc.seed)
		fmt.Fprintf(&b, "%s seed %d: %+v\n%s", tc.name, tc.seed, c.StatsSnapshot(), c.Report())
	}
	got := b.String()
	path := filepath.Join("testdata", "cells.golden")
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
