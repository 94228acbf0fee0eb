package fuzzsched

import (
	"bufio"
	"context"
	"fmt"
	"strconv"
	"strings"

	"deepmc/internal/crashsim"
	"deepmc/internal/pmcontract"
)

// Witness kinds.
const (
	// WitnessInvariant: crash enumeration at the implicated persist
	// boundary (a single-step window) violates the target invariant
	// under the genome.
	WitnessInvariant = "invariant"
	// WitnessImageDiff: the end-of-run durable image under the genome
	// differs from the fault-free baseline.
	WitnessImageDiff = "image-diff"
)

// Witness is the replayable evidence behind one finding.  Everything a
// third party needs to re-derive the bug is here: the target name, the
// genome (hex of its canonical encoding), and the exact evidence the
// validation run produced.  Replay re-executes the validation and
// asserts the evidence — including the injection log — byte-identical.
type Witness struct {
	Target string
	Kind   string // WitnessInvariant | WitnessImageDiff
	Code   string // implicating dynamic code (invariant kind only)
	Step   int    // implicated crash step (invariant kind only)
	// PModel is the persistency contract the validation ran under
	// ("" = x86, keeping pre-contract witnesses byte-identical).
	// Replay re-enumerates under the same contract.
	PModel string
	Genome *Genome
	// Detail is the violation rendering (invariant) or image diff
	// (image-diff).
	Detail string
	// FaultLog is the validation run's byte-replayable injection log.
	FaultLog string
}

// Encode renders the witness in its line-oriented text format.  Bodies
// (faultlog, detail) are indented with one tab per line; decoding
// strips it, so the round-trip is exact for tab-free content whose
// lines do not end in a carriage return (all injector and invariant
// renderings qualify).
func (w *Witness) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "deepmc-witness v1\n")
	fmt.Fprintf(&b, "target: %s\n", w.Target)
	fmt.Fprintf(&b, "kind: %s\n", w.Kind)
	if w.Code != "" {
		fmt.Fprintf(&b, "code: %s\n", w.Code)
	}
	if w.Kind == WitnessInvariant {
		fmt.Fprintf(&b, "step: %d\n", w.Step)
	}
	if w.PModel != "" {
		fmt.Fprintf(&b, "pmodel: %s\n", w.PModel)
	}
	fmt.Fprintf(&b, "genome: %s\n", w.Genome.Hex())
	writeBody(&b, "faultlog", w.FaultLog)
	writeBody(&b, "detail", w.Detail)
	return []byte(b.String())
}

func writeBody(b *strings.Builder, name, body string) {
	fmt.Fprintf(b, "%s:\n", name)
	if body == "" {
		return
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		fmt.Fprintf(b, "\t%s\n", line)
	}
}

// DecodeWitness parses the text format.  Carriage returns ending a line
// are dropped, so a CRLF copy of a witness decodes like the original.
func DecodeWitness(data []byte) (*Witness, error) {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() || sc.Text() != "deepmc-witness v1" {
		return nil, fmt.Errorf("fuzzsched: not a v1 witness")
	}
	w := &Witness{}
	var body *strings.Builder
	bodies := map[string]*strings.Builder{"faultlog": {}, "detail": {}}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "\t") && body != nil {
			// The scanner drops one carriage return; drop them all, or
			// the next encoding would lose the rest.
			body.WriteString(strings.TrimRight(line[1:], "\r"))
			body.WriteByte('\n')
			continue
		}
		body = nil
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("fuzzsched: witness line %q", line)
		}
		v = strings.TrimSpace(v)
		switch k {
		case "target":
			w.Target = v
		case "kind":
			w.Kind = v
		case "code":
			w.Code = v
		case "pmodel":
			w.PModel = v
		case "step":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("fuzzsched: witness step: %w", err)
			}
			w.Step = n
		case "genome":
			g, err := ParseHex(v)
			if err != nil {
				return nil, err
			}
			w.Genome = g
		case "faultlog", "detail":
			body = bodies[k]
		default:
			return nil, fmt.Errorf("fuzzsched: unknown witness field %q", k)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if w.Genome == nil {
		return nil, fmt.Errorf("fuzzsched: witness has no genome")
	}
	w.FaultLog = bodies["faultlog"].String()
	w.Detail = bodies["detail"].String()
	return w, nil
}

// Replay re-runs the witness's validation against its target and
// asserts the evidence reproduces byte-identically: same violations at
// the same implicated step (or same image diff) and the same injection
// log.  A nil error means the witness is live — the bug is still there
// and the genome still drives the exact recorded schedule.
func (w *Witness) Replay(ctx context.Context, t Target, maxSteps int) error {
	if t.Name != w.Target {
		return fmt.Errorf("fuzzsched: witness is for target %q, got %q", w.Target, t.Name)
	}
	pm, err := pmcontract.ParseContract(w.PModel)
	if err != nil {
		return fmt.Errorf("fuzzsched: replay %s: %w", t.Name, err)
	}
	switch w.Kind {
	case WitnessInvariant:
		if t.Invariant == nil {
			return fmt.Errorf("fuzzsched: invariant witness but target %s has no invariant", t.Name)
		}
		inj := NewInjector(w.Genome)
		res, err := crashsim.EnumerateCtx(ctx, t.Module, t.Entry, t.Invariant, crashsim.Options{
			Injector: inj, Workers: 1, MaxSteps: maxSteps, MinStep: w.Step, MaxStep: w.Step, Contract: pm,
		})
		if err != nil {
			return fmt.Errorf("fuzzsched: replay %s: %w", t.Name, err)
		}
		if res.Clean() {
			return fmt.Errorf("fuzzsched: replay %s: no violation at step %d (witness stale?)", t.Name, w.Step)
		}
		if got := renderViolations(res); got != w.Detail {
			return fmt.Errorf("fuzzsched: replay %s: violation detail diverged\n--- witness\n%s--- replay\n%s", t.Name, w.Detail, got)
		}
		if got := inj.Log(); got != w.FaultLog {
			return fmt.Errorf("fuzzsched: replay %s: injection log diverged\n--- witness\n%s--- replay\n%s", t.Name, w.FaultLog, got)
		}
		return nil
	case WitnessImageDiff:
		base, err := crashsim.FinalImage(ctx, t.Module, t.Entry, crashsim.Options{MaxSteps: maxSteps, Contract: pm})
		if err != nil {
			return fmt.Errorf("fuzzsched: replay %s baseline: %w", t.Name, err)
		}
		inj := NewInjector(w.Genome)
		img, err := crashsim.FinalImage(ctx, t.Module, t.Entry, crashsim.Options{Injector: inj, MaxSteps: maxSteps, Contract: pm})
		if err != nil {
			return fmt.Errorf("fuzzsched: replay %s: %w", t.Name, err)
		}
		if got := base.Diff(img); got != w.Detail {
			return fmt.Errorf("fuzzsched: replay %s: image diff diverged\n--- witness\n%s--- replay\n%s", t.Name, w.Detail, got)
		}
		if got := inj.Log(); got != w.FaultLog {
			return fmt.Errorf("fuzzsched: replay %s: injection log diverged\n--- witness\n%s--- replay\n%s", t.Name, w.FaultLog, got)
		}
		return nil
	default:
		return fmt.Errorf("fuzzsched: unknown witness kind %q", w.Kind)
	}
}
