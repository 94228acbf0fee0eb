// Command deepmc-bench regenerates the paper's tables and figures from
// this repository's implementations and runs the CI gates, by name:
//
//	deepmc-bench [-jobs N] NAME...
//	deepmc-bench all                # every paper entry, in order
//	deepmc-bench table1             # the headline detection table
//	deepmc-bench -jobs 0 speedup    # serial vs. parallel corpus analysis
//	deepmc-bench fleet-gate         # a CI gate, named like its make target
//	deepmc-bench -h                 # every name with what it runs
//
// The names are the entries of tables.Entries.  -jobs sets the checker
// fan-out for corpus runs (0 = GOMAXPROCS, below 1 = serial).  An entry
// with bench rows writes them to BENCH_<name>.json, with "-" in the
// name written as "_".  The exit status is 1 if any entry fails and 2
// on a usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"deepmc/internal/cli"
	"deepmc/internal/tables"
)

func main() {
	os.Exit(run(os.Args[1:], tables.Entries))
}

// run parses args, runs the named entries in order and returns the
// exit status.
func run(args []string, entries []tables.Entry) int {
	fs := flag.NewFlagSet("deepmc-bench", flag.ContinueOnError)
	jobs := fs.Int("jobs", 1, "checker worker count for corpus runs (0 = GOMAXPROCS)")
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintln(out, "usage: deepmc-bench [-jobs N] NAME...")
		fs.PrintDefaults()
		fmt.Fprintf(out, "\nnames:\n  %-13s every paper entry below, in order\n", "all")
		for _, e := range entries {
			fmt.Fprintf(out, "  %-13s %s\n", e.Name, e.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return cli.ExitOK
		}
		return cli.ExitFailed
	}

	var todo []tables.Entry
	for _, name := range fs.Args() {
		n := len(todo)
		for _, e := range entries {
			if e.Name == name || name == "all" && e.Paper {
				todo = append(todo, e)
			}
		}
		if len(todo) == n {
			fmt.Fprintf(fs.Output(), "deepmc-bench: unknown name %q\n", name)
			fs.Usage()
			return cli.ExitFailed
		}
	}
	if len(todo) == 0 {
		fs.Usage()
		return cli.ExitFailed
	}

	tables.Workers = *jobs
	status := cli.ExitOK
	for _, e := range todo {
		r := e.Run()
		fmt.Println(r.Text)
		if r.Bench != nil {
			if err := writeBench(e.Name, r.Bench); err != nil {
				fmt.Fprintf(os.Stderr, "deepmc-bench: %s: %v\n", e.Name, err)
				r.OK = false
			}
		}
		if !r.OK {
			status = cli.ExitViolations
		}
	}
	return status
}

// writeBench writes an entry's bench rows to BENCH_<name>.json.
func writeBench(name string, rows any) error {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+strings.ReplaceAll(name, "-", "_")+".json", append(b, '\n'), 0o644)
}
