package server

import (
	"net"

	"espftl/internal/wire"
)

// RawConn exposes a Client's underlying connection to the external test
// package, for tests that speak wire frames directly.
func RawConn(c *Client) net.Conn { return c.conn }

// ReadReply reads one reply through the Client's own decoder, for tests
// that write a raw command frame and want its answer; reading the socket
// directly would bypass the decoder's buffered reader.
func ReadReply(c *Client) (wire.Reply, error) { return c.rr.Read() }
