package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"time"

	"espftl/internal/workload"
)

func TestCmdRoundTrip(t *testing.T) {
	reqs := []workload.Request{
		{Op: workload.OpRead, LSN: 7, Sectors: 4},
		{Op: workload.OpWrite, LSN: 1024, Sectors: 8},
		{Op: workload.OpWrite, LSN: 0, Sectors: 1, Sync: true},
		{Op: workload.OpTrim, LSN: 99, Sectors: 16},
		{Op: workload.OpFlush},
		{Op: workload.OpAdvance, Gap: 3 * time.Second},
	}
	for i, req := range reqs {
		c, err := CmdOf(uint64(i), req)
		if err != nil {
			t.Fatalf("CmdOf(%v): %v", req, err)
		}
		var buf bytes.Buffer
		if err := WriteCmd(&buf, c); err != nil {
			t.Fatalf("WriteCmd: %v", err)
		}
		got, err := NewCmdReader(&buf).Read()
		if err != nil {
			t.Fatalf("CmdReader.Read: %v", err)
		}
		if got != c {
			t.Fatalf("command round trip: sent %+v, got %+v", c, got)
		}
		back, err := got.Request()
		if err != nil {
			t.Fatalf("Request(%+v): %v", got, err)
		}
		if back != req {
			t.Fatalf("request round trip: sent %+v, got %+v", req, back)
		}
	}
}

func TestCmdTagPreserved(t *testing.T) {
	c := Cmd{Op: OpStat, Tag: 0xdeadbeefcafe}
	var buf bytes.Buffer
	if err := WriteCmd(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := NewCmdReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != c.Tag {
		t.Fatalf("tag: sent %#x, got %#x", c.Tag, got.Tag)
	}
	if _, err := got.Request(); err == nil {
		t.Fatal("STAT converted to a host request; want error")
	}
}

func TestReplyRoundTrip(t *testing.T) {
	for _, r := range []Reply{
		{Tag: 42, Status: StatusOK, LatencyNS: 123456},
		{Tag: 1, Status: StatusErr, LatencyNS: 9, Payload: []byte("ftl: boom")},
		{Tag: 0, Status: StatusShutdown},
	} {
		buf := bytes.NewBuffer(AppendReply(nil, r))
		got, err := NewReplyReader(buf).Read()
		if err != nil {
			t.Fatalf("ReplyReader.Read: %v", err)
		}
		if got.Tag != r.Tag || got.Status != r.Status || got.LatencyNS != r.LatencyNS ||
			!bytes.Equal(got.Payload, r.Payload) {
			t.Fatalf("reply round trip: sent %+v, got %+v", r, got)
		}
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf, Hello{NS: "tenant-a"}); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NS != "tenant-a" || h.Version != Version {
		t.Fatalf("hello: got %+v", h)
	}

	wl := Welcome{Version: Version, SectorBytes: 4096, PageSectors: 4, MaxInflight: 32, Sectors: 1 << 20}
	buf.Reset()
	if err := WriteWelcome(&buf, wl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWelcome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != wl {
		t.Fatalf("welcome round trip: sent %+v, got %+v", wl, got)
	}

	buf.Reset()
	refuse := Welcome{Status: StatusErr, Err: "unknown namespace"}
	if err := WriteWelcome(&buf, refuse); err != nil {
		t.Fatal(err)
	}
	got, err = ReadWelcome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusErr || got.Err != refuse.Err {
		t.Fatalf("refusal round trip: got %+v", got)
	}
}

// TestHandshakeVersionNegotiation: there is one protocol version; a Hello
// or Welcome carrying any other version byte, older or newer, is refused.
func TestHandshakeVersionNegotiation(t *testing.T) {
	for _, v := range []uint8{Version - 1, Version + 1} {
		var buf bytes.Buffer
		if err := WriteHello(&buf, Hello{NS: "other", Version: v}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadHello(&buf); err == nil {
			t.Errorf("version-%d hello accepted", v)
		}
		buf.Reset()
		if err := WriteWelcome(&buf, Welcome{Version: v, SectorBytes: 4096, PageSectors: 4, MaxInflight: 8, Sectors: 4096}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadWelcome(&buf); err == nil {
			t.Errorf("version-%d welcome accepted", v)
		}
	}
}

// TestStatusVocabulary pins the typed status surface: names and the known
// set.
func TestStatusVocabulary(t *testing.T) {
	all := []uint8{StatusOK, StatusErr, StatusShutdown, StatusReadOnly,
		StatusUncorrectable, StatusFenced, StatusRetryable}
	names := map[uint8]string{
		StatusOK:            "OK",
		StatusErr:           "ERROR",
		StatusShutdown:      "SHUTTING_DOWN",
		StatusReadOnly:      "READ_ONLY",
		StatusUncorrectable: "UNCORRECTABLE",
		StatusFenced:        "NAMESPACE_FENCED",
		StatusRetryable:     "RETRYABLE",
	}
	for _, s := range all {
		if !KnownStatus(s) {
			t.Errorf("status %d not known", s)
		}
		if StatusName(s) != names[s] {
			t.Errorf("StatusName(%d) = %q, want %q", s, StatusName(s), names[s])
		}
	}
	if KnownStatus(200) || StatusName(200) != "Status(200)" {
		t.Errorf("unknown status handling: known=%v name=%q", KnownStatus(200), StatusName(200))
	}
	if !Retryable(StatusRetryable) || Retryable(StatusReadOnly) {
		t.Error("Retryable misclassifies")
	}
}

func TestHandshakeRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	// A text-trace stream shoved at the handshake reader must fail
	// cleanly, not parse.
	body := []byte("W 0 8\nR 0 8\n")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, err := ReadHello(&buf); err == nil {
		t.Fatal("garbage handshake accepted")
	}
}

func TestFrameBounds(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame: err=%v", err)
	}
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := readFrame(bytes.NewReader(append(hdr[:], 1, 2, 3))); err == nil ||
		!strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated frame: err=%v", err)
	}
	// The stream decoders enforce the same bounds on their own frames.
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := NewCmdReader(bytes.NewReader(hdr[:])).Read(); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized command frame: err=%v", err)
	}
	if _, err := NewReplyReader(bytes.NewReader(hdr[:])).Read(); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized reply frame: err=%v", err)
	}
	if _, err := NewCmdReader(bytes.NewReader(nil)).Read(); err != io.EOF {
		t.Fatalf("clean EOF between command frames: err=%v", err)
	}
	if _, err := NewReplyReader(bytes.NewReader(nil)).Read(); err != io.EOF {
		t.Fatalf("clean EOF between reply frames: err=%v", err)
	}
}
