package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadText: arbitrary text input must never panic, and anything that
// parses must re-encode and re-parse to the same requests.
func FuzzReadText(f *testing.F) {
	f.Add("W 5 1 S\nR 5 1\n")
	f.Add("# comment\nA 100\nT 0 8\n")
	f.Add("W -1 0 Q")
	f.Add("")
	f.Fuzz(func(t *testing.T, in string) {
		reqs, err := ReadText(bytes.NewReader([]byte(in)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, reqs); err != nil {
			t.Fatalf("parsed requests failed to encode: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(reqs) != 0 && !reflect.DeepEqual(reqs, again) {
			t.Fatalf("round trip changed: %v -> %v", reqs, again)
		}
	})
}
