package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepmc/internal/cli"
)

// hugePIR allocates an object whose size fits int but no host memory.
const hugePIR = `module huge

func main() {
	%p = palloc [1152921504606846975]int
	store %p[1], 5 @4
	flush %p[1] @5
	fence @6
	ret
}
`

// txaddPastObjectPIR registers a range five million times the size of
// its 16-byte object for undo logging.
const txaddPastObjectPIR = `module wide

type pair struct {
	a: int
	b: int
}

func main() {
	%p = palloc pair
	txbegin @3
	txadd %p, 80000000 @4
	store %p.a, 1 @5
	txend @6
	fence @7
	ret
}
`

// buildCLI builds the deepmc binary into a test directory and returns
// the directory and a runner for it.
func buildCLI(t *testing.T) (string, func(args ...string) (stdout, stderr string, code int)) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the deepmc binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "deepmc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir, func(args ...string) (stdout, stderr string, code int) {
		var o, e bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &o, &e
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return o.String(), e.String(), code
	}
}

// writePIR writes src into dir under name and returns its path.
func writePIR(t *testing.T, dir, name, src string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOversizedObjectIsAnError builds the CLI and runs the two commands
// that interpret a module over a program allocating an oversized
// object: each must fail with one line naming the type and exit 2,
// never with a panic.  The static check never allocates it and still
// reports the program clean.
func TestOversizedObjectIsAnError(t *testing.T) {
	dir, run := buildCLI(t)
	src := writePIR(t, dir, "huge.pir", hugePIR)
	for _, args := range [][]string{{"crashsim", src}, {"run", "-entry", "main", src}} {
		_, stderr, code := run(args...)
		if code != cli.ExitFailed {
			t.Errorf("%s: exit %d, want %d", args[0], code, cli.ExitFailed)
		}
		if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "alloc of [1152921504606846975]int") ||
			!strings.Contains(stderr, "exceeds the 8388608-byte object limit") {
			t.Errorf("%s: stderr is not the one-line oversized-object error:\n%s", args[0], stderr)
		}
	}
	stdout, _, code := run("check", src)
	if code != 0 || !strings.Contains(stdout, "0 warnings") {
		t.Errorf("check: exit %d, stdout:\n%s", code, stdout)
	}
}

// TestTxAddPastObjectIsAnError: crashsim over a txadd of 80,000,000
// bytes on a 16-byte object fails at once with the interpreter's
// bounds error, instead of logging ten million words of a range the
// object does not have.
func TestTxAddPastObjectIsAnError(t *testing.T) {
	dir, run := buildCLI(t)
	src := writePIR(t, dir, "wide.pir", txaddPastObjectPIR)
	start := time.Now()
	_, stderr, code := run("crashsim", src)
	if code != cli.ExitFailed {
		t.Errorf("crashsim: exit %d, want %d", code, cli.ExitFailed)
	}
	if !strings.Contains(stderr, "txadd out of bounds: obj1+0") {
		t.Errorf("crashsim: stderr does not carry the bounds error:\n%s", stderr)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("crashsim took %v to refuse the range", d)
	}
}
