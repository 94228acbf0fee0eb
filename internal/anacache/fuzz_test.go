package anacache

import (
	"bytes"
	"encoding/json"
	"testing"

	"deepmc/internal/dsa"
	"deepmc/internal/report"
)

// FuzzDecodeWireEntry feeds the tier's wire decoder arbitrary bodies,
// stamped with their own checksum or not.  A body is accepted only with
// a matching BodySum and the current diskFormat, and an accepted entry
// re-encodes to bytes that decode and re-encode identically.  Bytes are
// compared rather than values: a nil and an empty warning list decode
// differently but encode alike.
func FuzzDecodeWireEntry(f *testing.F) {
	good, err := json.Marshal(diskEntry{
		Format: diskFormat,
		Warnings: []report.Warning{{
			Rule: report.RuleUnflushedWrite, Class: report.Violation, Message: "m",
			Func: "f", File: "a.pir", Line: 3, Code: report.CodeUnflushedWrite,
		}},
		DSA: dsa.FuncSummary{Nodes: 4, Persistent: 1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, true)
	f.Add(good, false)
	f.Add([]byte(`{"format":1,"warnings":[]}`), true)
	f.Add([]byte(`{"format":2,"warnings":null}`), true)
	f.Add([]byte("{}"), true)
	f.Add([]byte("garbage"), true)
	f.Fuzz(func(t *testing.T, body []byte, stamp bool) {
		sum := "0"
		if stamp {
			sum = BodySum(body)
		}
		e, ok := decodeWireEntry(sum, int64(len(body)), body)
		if ok && !stamp {
			t.Fatalf("accepted a body whose checksum does not match: %q", body)
		}
		if _, short := decodeWireEntry(BodySum(body), int64(len(body))+1, body); short {
			t.Fatalf("accepted a body shorter than its Content-Length: %q", body)
		}
		if !ok {
			return
		}
		if e.Format != diskFormat {
			t.Fatalf("accepted format %d, want %d", e.Format, diskFormat)
		}
		first, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("accepted entry does not encode: %v", err)
		}
		again, ok := decodeWireEntry(BodySum(first), int64(len(first)), first)
		if !ok {
			t.Fatalf("re-encoded entry is rejected: %s", first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode/decode/encode unstable for accepted body %q\n--- first:\n%s\n--- second:\n%s", body, first, second)
		}
	})
}
