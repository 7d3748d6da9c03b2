package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// The two stream decoders are the only code that parses bytes a peer
// controls after the handshake, and both hand out views of a reused buffer.
// The fuzz targets feed them arbitrary streams and require: no panic, no
// buffer past MaxFrame whatever length a header claims, and every frame
// that decodes re-encodes (Append*) to a frame that decodes to the same
// value.

func FuzzCmdReader(f *testing.F) {
	f.Add(AppendCmd(nil, Cmd{Op: OpWrite, Sync: true, Tag: 7, Arg: 1024, Sectors: 8}))
	f.Add(AppendCmd(AppendCmd(nil, Cmd{Op: OpRead, Arg: 3, Sectors: 1}), Cmd{Op: OpStat, Tag: ^uint64(0)}))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add(binary.BigEndian.AppendUint32(nil, cmdBody)[:3])
	f.Add(append(binary.BigEndian.AppendUint32(nil, cmdBody), 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := NewCmdReader(bytes.NewReader(data))
		for {
			c, err := cr.Read()
			if err != nil {
				return
			}
			if c.Op < OpRead || c.Op > OpAdvance {
				t.Fatalf("decoded unknown opcode %d", c.Op)
			}
			back, err := NewCmdReader(bytes.NewReader(AppendCmd(nil, c))).Read()
			if err != nil || back != c {
				t.Fatalf("round trip of %+v: got %+v, err %v", c, back, err)
			}
		}
	})
}

func FuzzReplyReader(f *testing.F) {
	f.Add(AppendReply(nil, Reply{Tag: 42, Status: StatusOK, LatencyNS: 123456}))
	f.Add(AppendReply(AppendReply(nil, Reply{Tag: 1, Status: StatusErr, Payload: []byte("ftl: boom")}),
		Reply{Status: StatusShutdown, Payload: bytes.Repeat([]byte{'x'}, 200)}))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame)) // largest legal claim, no body
	f.Add(binary.BigEndian.AppendUint32(nil, 16))       // shorter than the fixed reply header
	f.Fuzz(func(t *testing.T, data []byte) {
		rr := NewReplyReader(bytes.NewReader(data))
		for {
			r, err := rr.Read()
			if cap(rr.buf) > MaxFrame {
				t.Fatalf("decode buffer grew to %d bytes, past MaxFrame", cap(rr.buf))
			}
			if err != nil {
				return
			}
			// The payload aliases rr.buf only until the next Read; the
			// re-encoding below copies it first.
			back, err := NewReplyReader(bytes.NewReader(AppendReply(nil, r))).Read()
			if err != nil || back.Tag != r.Tag || back.Status != r.Status ||
				back.LatencyNS != r.LatencyNS || !bytes.Equal(back.Payload, r.Payload) {
				t.Fatalf("round trip of %+v: got %+v, err %v", r, back, err)
			}
		}
	})
}
