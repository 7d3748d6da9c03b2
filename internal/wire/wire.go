// Package wire defines the length-prefixed TCP protocol the espserved
// block-device service speaks. Request traces on disk are internal/trace's
// text and binary formats; a client replays one by encoding each request
// as a command frame (CmdOf).
//
// Every frame on the wire is a big-endian uint32 body length followed by
// the body. A connection opens with one handshake exchange — the client's
// Hello names the namespace it wants, the server's Welcome advertises the
// namespace geometry and the per-connection in-flight cap — and then
// carries command frames client-to-server and reply frames
// server-to-client. Replies are tagged and may arrive out of order; the
// tag is the client's correlation token and is never interpreted by the
// server.
//
// The simulator carries no payload data (data integrity is tracked by
// version stamps inside the device model), so READ and WRITE frames are
// headers only; the protocol is a control-plane twin of an NBD-style
// block export.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"espftl/internal/workload"
)

// Version is the protocol version this package speaks, the only one either
// end of the handshake accepts. Version 2 added the typed degraded-mode
// reply statuses (READ_ONLY, UNCORRECTABLE, NAMESPACE_FENCED, RETRYABLE).
const Version = 2

// MaxFrame bounds any frame body; larger lengths indicate a corrupt or
// hostile stream and are rejected before allocation.
const MaxFrame = 1 << 20

// helloMagic opens the client Hello and the server Welcome bodies.
var helloMagic = [4]byte{'E', 'S', 'P', 'S'}

// Op is the command opcode.
type Op uint8

// The wire opcodes. A live server refuses Advance (its clock is paced by
// the real-time gate, not by clients); Stat asks the server for a JSON
// snapshot of the connection's namespace.
const (
	OpRead Op = 1 + iota
	OpWrite
	OpTrim
	OpFlush
	OpStat
	OpAdvance
)

// String names the opcode in errors and tooling.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpTrim:
		return "TRIM"
	case OpFlush:
		return "FLUSH"
	case OpStat:
		return "STAT"
	case OpAdvance:
		return "ADVANCE"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Reply status codes. The first three are the version-1 vocabulary;
// version 2 added the degraded-mode statuses below them, so a failure
// reaches clients as typed data instead of an opaque error string or a
// dropped connection.
const (
	// StatusOK acknowledges a completed command; for STAT the payload is
	// the namespace's JSON snapshot.
	StatusOK uint8 = 0
	// StatusErr reports a failed command; the payload is the error text.
	StatusErr uint8 = 1
	// StatusShutdown rejects a command submitted while the server drains
	// (SHUTTING_DOWN): reconnecting is pointless, drain and exit.
	StatusShutdown uint8 = 2
	// StatusReadOnly rejects a write because the device has degraded to
	// read-only service (spare capacity exhausted by grown bad blocks).
	// Reads keep working; writes will keep failing until an operator
	// intervenes.
	StatusReadOnly uint8 = 3
	// StatusUncorrectable reports a read whose raw bit error rate
	// exceeded the ECC correction capability even after read-retry: the
	// sector's data is lost. Retrying the same read will not help.
	StatusUncorrectable uint8 = 4
	// StatusFenced rejects a command because the namespace has been
	// fenced — the engine watchdog detected a stall, or an operator
	// fenced it — and stays fenced until recovered server-side.
	StatusFenced uint8 = 5
	// StatusRetryable reports a transient refusal (admission budget
	// exhausted within the configured wait, recovery in progress): the
	// client should back off and resend the same command.
	StatusRetryable uint8 = 6
)

// statusNames indexes the status vocabulary for tooling and errors.
var statusNames = [...]string{
	StatusOK:            "OK",
	StatusErr:           "ERROR",
	StatusShutdown:      "SHUTTING_DOWN",
	StatusReadOnly:      "READ_ONLY",
	StatusUncorrectable: "UNCORRECTABLE",
	StatusFenced:        "NAMESPACE_FENCED",
	StatusRetryable:     "RETRYABLE",
}

// StatusName names a reply status for reports and errors.
func StatusName(s uint8) string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", s)
}

// KnownStatus reports whether s is part of the typed vocabulary — the
// chaos harness's invariant that no untyped status ever reaches a client.
func KnownStatus(s uint8) bool { return int(s) < len(statusNames) }

// Retryable reports whether a status invites the client to back off and
// resend the same command.
func Retryable(s uint8) bool { return s == StatusRetryable }

// Cmd is one decoded command frame. Arg is the namespace-relative LSN for
// I/O commands and the idle gap in nanoseconds for ADVANCE.
type Cmd struct {
	Op      Op
	Sync    bool
	Tag     uint64
	Arg     uint64
	Sectors uint32
}

// cmdBody is the fixed command body length: op, flags, tag, arg, sectors.
const cmdBody = 1 + 1 + 8 + 8 + 4

// Request converts the command to a host request. STAT has no request
// form and returns an error.
func (c Cmd) Request() (workload.Request, error) {
	switch c.Op {
	case OpRead:
		return workload.Request{Op: workload.OpRead, LSN: int64(c.Arg), Sectors: int(c.Sectors)}, nil
	case OpWrite:
		return workload.Request{Op: workload.OpWrite, LSN: int64(c.Arg), Sectors: int(c.Sectors), Sync: c.Sync}, nil
	case OpTrim:
		return workload.Request{Op: workload.OpTrim, LSN: int64(c.Arg), Sectors: int(c.Sectors)}, nil
	case OpFlush:
		return workload.Request{Op: workload.OpFlush}, nil
	case OpAdvance:
		return workload.Request{Op: workload.OpAdvance, Gap: time.Duration(c.Arg)}, nil
	}
	return workload.Request{}, fmt.Errorf("wire: op %s has no request form", c.Op)
}

// CmdOf encodes a host request as a tagged command frame body.
func CmdOf(tag uint64, r workload.Request) (Cmd, error) {
	c := Cmd{Tag: tag}
	switch r.Op {
	case workload.OpRead:
		c.Op = OpRead
	case workload.OpWrite:
		c.Op, c.Sync = OpWrite, r.Sync
	case workload.OpTrim:
		c.Op = OpTrim
	case workload.OpFlush:
		c.Op = OpFlush
	case workload.OpAdvance:
		c.Op = OpAdvance
		c.Arg = uint64(r.Gap)
		return c, nil
	default:
		return c, fmt.Errorf("wire: cannot encode op %v", r.Op)
	}
	if r.Op != workload.OpFlush {
		c.Arg = uint64(r.LSN)
		c.Sectors = uint32(r.Sectors)
	}
	return c, nil
}

// AppendCmd appends the framed command to buf and returns the extended
// slice; callers batch frames into one socket write with it.
func AppendCmd(buf []byte, c Cmd) []byte {
	buf = binary.BigEndian.AppendUint32(buf, cmdBody)
	buf = append(buf, byte(c.Op))
	var flags byte
	if c.Sync {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, c.Tag)
	buf = binary.BigEndian.AppendUint64(buf, c.Arg)
	return binary.BigEndian.AppendUint32(buf, c.Sectors)
}

// WriteCmd writes one framed command.
func WriteCmd(w io.Writer, c Cmd) error {
	_, err := w.Write(AppendCmd(nil, c))
	return err
}

// CmdReader decodes command frames from a stream without allocating: the
// fixed-size frame is read into an internal buffer reused across calls.
// Construct one per connection and keep it for the connection's life (the
// buffer must be heap-resident once; a per-call stack buffer would escape
// through the io.Reader interface and allocate every frame).
type CmdReader struct {
	r   io.Reader
	buf [4 + cmdBody]byte
}

// NewCmdReader returns a reusable command decoder over r.
func NewCmdReader(r io.Reader) *CmdReader { return &CmdReader{r: r} }

// Read decodes the next command frame.
func (cr *CmdReader) Read() (Cmd, error) {
	if _, err := io.ReadFull(cr.r, cr.buf[:4]); err != nil {
		return Cmd{}, err
	}
	n := binary.BigEndian.Uint32(cr.buf[:4])
	if n != cmdBody {
		if n > MaxFrame {
			return Cmd{}, fmt.Errorf("wire: frame of %d bytes exceeds the %d limit", n, MaxFrame)
		}
		return Cmd{}, fmt.Errorf("wire: command body of %d bytes (want %d)", n, cmdBody)
	}
	if _, err := io.ReadFull(cr.r, cr.buf[4:4+cmdBody]); err != nil {
		return Cmd{}, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return parseCmd(cr.buf[4 : 4+cmdBody])
}

func parseCmd(body []byte) (Cmd, error) {
	c := Cmd{
		Op:      Op(body[0]),
		Sync:    body[1]&1 != 0,
		Tag:     binary.BigEndian.Uint64(body[2:]),
		Arg:     binary.BigEndian.Uint64(body[10:]),
		Sectors: binary.BigEndian.Uint32(body[18:]),
	}
	if c.Op < OpRead || c.Op > OpAdvance {
		return Cmd{}, fmt.Errorf("wire: unknown opcode %d", body[0])
	}
	return c, nil
}

// Reply is one decoded reply frame. LatencyNS is the server-side virtual
// service latency (completion minus arrival on the simulated clock); the
// payload carries the error text (StatusErr) or the STAT JSON (StatusOK).
type Reply struct {
	Tag       uint64
	Status    uint8
	LatencyNS uint64
	Payload   []byte
}

// AppendReply appends the framed reply to buf.
func AppendReply(buf []byte, r Reply) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(8+1+8+len(r.Payload)))
	buf = binary.BigEndian.AppendUint64(buf, r.Tag)
	buf = append(buf, r.Status)
	buf = binary.BigEndian.AppendUint64(buf, r.LatencyNS)
	return append(buf, r.Payload...)
}

func parseReply(body []byte) (Reply, error) {
	if len(body) < 17 {
		return Reply{}, fmt.Errorf("wire: reply body of %d bytes (want >= 17)", len(body))
	}
	rep := Reply{
		Tag:       binary.BigEndian.Uint64(body),
		Status:    body[8],
		LatencyNS: binary.BigEndian.Uint64(body[9:]),
	}
	if len(body) > 17 {
		rep.Payload = body[17:]
	}
	return rep, nil
}

// ReplyReader decodes reply frames from a stream without steady-state
// allocation: frames are read into an internal buffer that grows to the
// largest reply seen and is reused across calls.
//
// Borrow contract: the returned Reply's Payload aliases that buffer and is
// valid only until the next Read call; a caller that retains it must copy.
type ReplyReader struct {
	r   io.Reader
	buf []byte
}

// NewReplyReader returns a reusable reply decoder over r.
func NewReplyReader(r io.Reader) *ReplyReader {
	return &ReplyReader{r: r, buf: make([]byte, 64)}
}

// Read decodes the next reply frame. The reply's Payload is only valid
// until the next Read.
func (rr *ReplyReader) Read() (Reply, error) {
	if _, err := io.ReadFull(rr.r, rr.buf[:4]); err != nil {
		return Reply{}, err
	}
	n := binary.BigEndian.Uint32(rr.buf[:4])
	if n > MaxFrame {
		return Reply{}, fmt.Errorf("wire: frame of %d bytes exceeds the %d limit", n, MaxFrame)
	}
	if int(n) > cap(rr.buf) {
		rr.buf = make([]byte, n)
	}
	body := rr.buf[:n]
	if _, err := io.ReadFull(rr.r, body); err != nil {
		return Reply{}, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return parseReply(body)
}

// Hello is the client's handshake: the namespace it wants to attach to
// and the protocol version it speaks (zero means the current Version).
type Hello struct {
	NS      string
	Version uint8
}

// WriteHello writes the framed client handshake.
func WriteHello(w io.Writer, h Hello) error {
	if len(h.NS) > 255 {
		return fmt.Errorf("wire: namespace name of %d bytes (max 255)", len(h.NS))
	}
	v := h.Version
	if v == 0 {
		v = Version
	}
	body := make([]byte, 0, 6+len(h.NS))
	body = append(body, helloMagic[:]...)
	body = append(body, v, byte(len(h.NS)))
	body = append(body, h.NS...)
	return writeFrame(w, body)
}

// ReadHello reads and validates the client handshake; any version byte
// other than Version is refused.
func ReadHello(r io.Reader) (Hello, error) {
	body, err := readFrame(r)
	if err != nil {
		return Hello{}, err
	}
	if len(body) < 6 || [4]byte(body[:4]) != helloMagic {
		return Hello{}, fmt.Errorf("wire: not an espserved handshake")
	}
	if body[4] != Version {
		return Hello{}, fmt.Errorf("wire: protocol version %d (want %d)", body[4], Version)
	}
	n := int(body[5])
	if len(body) != 6+n {
		return Hello{}, fmt.Errorf("wire: handshake length mismatch")
	}
	return Hello{NS: string(body[6:]), Version: body[4]}, nil
}

// Welcome is the server's handshake reply: the namespace geometry and the
// connection's admission limits. A non-zero Status refuses the
// connection with Err as the reason. Version is the protocol version
// (zero on write means the current Version).
type Welcome struct {
	Status      uint8
	Version     uint8
	SectorBytes uint32
	PageSectors uint32
	MaxInflight uint32
	Sectors     uint64
	Err         string
}

// WriteWelcome writes the framed server handshake reply.
func WriteWelcome(w io.Writer, wl Welcome) error {
	if len(wl.Err) > 255 {
		wl.Err = wl.Err[:255]
	}
	v := wl.Version
	if v == 0 {
		v = Version
	}
	body := make([]byte, 0, 4+1+1+4+4+4+8+1+len(wl.Err))
	body = append(body, helloMagic[:]...)
	body = append(body, v, wl.Status)
	body = binary.BigEndian.AppendUint32(body, wl.SectorBytes)
	body = binary.BigEndian.AppendUint32(body, wl.PageSectors)
	body = binary.BigEndian.AppendUint32(body, wl.MaxInflight)
	body = binary.BigEndian.AppendUint64(body, wl.Sectors)
	body = append(body, byte(len(wl.Err)))
	body = append(body, wl.Err...)
	return writeFrame(w, body)
}

// ReadWelcome reads the server handshake reply.
func ReadWelcome(r io.Reader) (Welcome, error) {
	body, err := readFrame(r)
	if err != nil {
		return Welcome{}, err
	}
	if len(body) < 27 || [4]byte(body[:4]) != helloMagic {
		return Welcome{}, fmt.Errorf("wire: not an espserved handshake reply")
	}
	if body[4] != Version {
		return Welcome{}, fmt.Errorf("wire: protocol version %d (want %d)", body[4], Version)
	}
	wl := Welcome{
		Version:     body[4],
		Status:      body[5],
		SectorBytes: binary.BigEndian.Uint32(body[6:]),
		PageSectors: binary.BigEndian.Uint32(body[10:]),
		MaxInflight: binary.BigEndian.Uint32(body[14:]),
		Sectors:     binary.BigEndian.Uint64(body[18:]),
	}
	n := int(body[26])
	if len(body) != 27+n {
		return Welcome{}, fmt.Errorf("wire: handshake reply length mismatch")
	}
	wl.Err = string(body[27:])
	return wl, nil
}

// writeFrame writes a length-prefixed frame.
func writeFrame(w io.Writer, body []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads a length-prefixed frame, bounding the allocation.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d limit", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return body, nil
}
