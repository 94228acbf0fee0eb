package report

import (
	"bytes"
	"testing"
)

// FuzzParseJSON feeds ParseJSON arbitrary bytes — fleet shards and the
// serve client read reports off the wire with it.  Anything it accepts
// must re-render to JSON that parses again and re-renders to the same
// bytes.
func FuzzParseJSON(f *testing.F) {
	full, err := buildPartial().JSON()
	if err != nil {
		f.Fatal(err)
	}
	empty, err := New().JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(empty)
	f.Add([]byte(`{"schema_version":1,"warnings":[{"rule":"unflushed-write","kind":"dynamic","line":3}]}`))
	f.Add([]byte(`{"schema_version":2,"contract":"cxl","partial":true,"skipped":[{"subject":"f","stage":"traces","reason":"r"}]}`))
	f.Add([]byte(`{"schema_version":3}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := ParseJSON(in)
		if err != nil {
			return
		}
		first, err := r.JSON()
		if err != nil {
			t.Fatalf("accepted report does not render: %v", err)
		}
		again, err := ParseJSON(first)
		if err != nil {
			t.Fatalf("rendered report does not parse: %v\n%s", err, first)
		}
		second, err := again.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("render/parse/render unstable for accepted input %q\n--- first:\n%s\n--- second:\n%s", in, first, second)
		}
	})
}
