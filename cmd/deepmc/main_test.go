package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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

// TestOversizedObjectIsAnError builds the CLI and runs the two commands
// that interpret a module over a program allocating an oversized
// object: each must fail with one line naming the type and exit 2,
// never with a panic.  The static check never allocates it and still
// reports the program clean.
func TestOversizedObjectIsAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the deepmc binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "deepmc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	src := filepath.Join(dir, "huge.pir")
	if err := os.WriteFile(src, []byte(hugePIR), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (stdout, stderr string, code int) {
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
