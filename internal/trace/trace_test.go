package trace

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"espftl/internal/workload"
)

func sampleReqs() []workload.Request {
	return []workload.Request{
		{Op: workload.OpWrite, LSN: 0, Sectors: 1, Sync: true},
		{Op: workload.OpWrite, LSN: 100, Sectors: 4},
		{Op: workload.OpRead, LSN: 50, Sectors: 2},
		{Op: workload.OpTrim, LSN: 8, Sectors: 8},
		{Op: workload.OpAdvance, Gap: 15 * time.Minute},
		{Op: workload.OpWrite, LSN: 1 << 40, Sectors: 32},
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := sampleReqs()
	if err := WriteText(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestReadTextCommentsAndBlank(t *testing.T) {
	in := `
# a comment
W 5 1 S

R 5 1
`
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].LSN != 5 || !got[0].Sync || got[1].Op != workload.OpRead {
		t.Fatalf("parsed %v", got)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"X 1 2",    // unknown op
		"W 1",      // missing fields
		"W 1 2 Q",  // bad sync flag
		"W a 2 S",  // non-numeric
		"R 1",      // missing length
		"A",        // missing gap
		"W -5 2 S", // negative LSN
		"W 5 0 -",  // zero length
		"A -3",     // negative gap
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadTextShortAndEmptyInput(t *testing.T) {
	// Empty and comment-only input is a valid empty trace.
	for _, in := range []string{"", "#\n", "W 0 1 S\n"} {
		reqs, err := ReadText(strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadText(%q) = %v", in, err)
		}
		wantLen := 0
		if strings.HasPrefix(in, "W") {
			wantLen = 1
		}
		if len(reqs) != wantLen {
			t.Fatalf("ReadText(%q) returned %d requests, want %d", in, len(reqs), wantLen)
		}
	}
}

// TestReadTextRefusesBinaryMagic: a trace in the retired binary format
// (it began "ESP1", then a varint count and packed requests) must be
// refused at line 1, not parsed as an empty trace and not panic. The
// second input has no newline in the scanner's 1 MiB line limit.
func TestReadTextRefusesBinaryMagic(t *testing.T) {
	for _, in := range [][]byte{
		[]byte("ESP1\x06\x81\x00\x01\x00\x04\x64\x04"),
		append([]byte("ESP1"), bytes.Repeat([]byte{0x81}, 1<<20)...),
	} {
		reqs, err := ReadText(bytes.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Fatalf("%d-byte binary trace: got %d requests, err %v; want a line 1 error", len(in), len(reqs), err)
		}
	}
}

// TestReadAnyDetectsText: any text trace is read as text, also one whose
// first line is a comment carrying the retired binary magic and whose lines
// end in CRLF.
func TestReadAnyDetectsText(t *testing.T) {
	var buf bytes.Buffer
	want := sampleReqs()
	if err := WriteText(&buf, want); err != nil {
		t.Fatal(err)
	}
	in := "# ESP1\n" + buf.String()
	in = strings.ReplaceAll(in, "\n", "\r\n")
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("text trace mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	bad := []workload.Request{{Op: workload.OpWrite, LSN: -1, Sectors: 1}}
	if err := WriteText(&bytes.Buffer{}, bad); err == nil {
		t.Error("WriteText accepted invalid request")
	}
}

func TestGenerate(t *testing.T) {
	g, err := workload.NewSynthetic(workload.Sysbench(), 10000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := Generate(g, 500)
	if len(reqs) != 500 {
		t.Fatalf("Generate produced %d", len(reqs))
	}
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Fatalf("request %d invalid: %v", i, err)
		}
	}
}

// Property: the text codec round-trips arbitrary valid request streams.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(raw []struct {
		Kind    uint8
		LSN     uint32
		Sectors uint8
		Sync    bool
	}) bool {
		reqs := make([]workload.Request, 0, len(raw))
		for _, x := range raw {
			var r workload.Request
			switch x.Kind % 4 {
			case 0:
				r = workload.Request{Op: workload.OpWrite, LSN: int64(x.LSN), Sectors: int(x.Sectors)%64 + 1, Sync: x.Sync}
			case 1:
				r = workload.Request{Op: workload.OpRead, LSN: int64(x.LSN), Sectors: int(x.Sectors)%64 + 1}
			case 2:
				r = workload.Request{Op: workload.OpTrim, LSN: int64(x.LSN), Sectors: int(x.Sectors)%64 + 1}
			case 3:
				r = workload.Request{Op: workload.OpAdvance, Gap: time.Duration(x.LSN)}
			}
			reqs = append(reqs, r)
		}
		var tb bytes.Buffer
		if WriteText(&tb, reqs) != nil {
			return false
		}
		fromText, err := ReadText(&tb)
		if err != nil {
			return false
		}
		if len(reqs) == 0 {
			return len(fromText) == 0
		}
		return reflect.DeepEqual(fromText, reqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReadFile: a file reads as ReadText reads its bytes, and a parse
// error names the file.
func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	good, bad := dir+"/good.trace", dir+"/bad.trace"
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleReqs()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("W 0 1 S\nX 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(good); err != nil || !reflect.DeepEqual(got, sampleReqs()) {
		t.Fatalf("ReadFile(good) = %v, %v", got, err)
	}
	if _, err := ReadFile(bad); err == nil || !strings.HasPrefix(err.Error(), "trace "+bad+": trace: line 2") {
		t.Fatalf("ReadFile(bad) error %v, want it to name the file and line", err)
	}
	if _, err := ReadFile(dir + "/missing.trace"); err == nil || !strings.Contains(err.Error(), "missing.trace") {
		t.Fatalf("ReadFile(missing) error %v, want it to name the file", err)
	}
}
