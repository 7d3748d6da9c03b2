package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func TestReadAnyDetectsBinary(t *testing.T) {
	var buf bytes.Buffer
	want := sampleReqs()
	if err := WriteBinary(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAny(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("binary via ReadAny mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestReadAnyDetectsText(t *testing.T) {
	var buf bytes.Buffer
	want := sampleReqs()
	if err := WriteText(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAny(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("text via ReadAny mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestReadAnyCorruptBinary is the regression test for the old silent
// "retry as text" fallback: a stream carrying the binary magic must be
// parsed as binary and its parse error surfaced, never re-read as text.
func TestReadAnyCorruptBinary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, sampleReqs()); err != nil {
		t.Fatal(err)
	}
	corrupt := buf.Bytes()[:buf.Len()-3] // truncate mid-request
	_, err := ReadAny(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("truncated binary trace parsed without error")
	}
	if strings.Contains(err.Error(), "line") {
		t.Fatalf("error %q came from the text parser: binary was retried as text", err)
	}
	// Valid magic followed by an absurd request count: the binary reader's
	// plausibility check must fire, not be swallowed by a text retry.
	junk := append([]byte{}, magic[:]...)
	var cnt [binary.MaxVarintLen64]byte
	junk = append(junk, cnt[:binary.PutUvarint(cnt[:], 1<<40)]...)
	if _, err := ReadAny(bytes.NewReader(junk)); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("garbage after magic: err = %v, want implausible-count error", err)
	}
}

func TestReadAnyShortAndEmptyInput(t *testing.T) {
	// Inputs shorter than the magic cannot be binary; they fall through to
	// the text reader, where empty input is a valid empty trace.
	for _, in := range []string{"", "#\n", "W 0 1 S\n"} {
		reqs, err := ReadAny(strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadAny(%q) = %v", in, err)
		}
		wantLen := 0
		if strings.HasPrefix(in, "W") {
			wantLen = 1
		}
		if len(reqs) != wantLen {
			t.Fatalf("ReadAny(%q) returned %d requests, want %d", in, len(reqs), wantLen)
		}
	}
	// A malformed text line still errors through ReadAny.
	if _, err := ReadAny(strings.NewReader("X 1 2\n")); err == nil {
		t.Fatal("bad text line parsed without error")
	}
}
