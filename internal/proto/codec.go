package proto

import (
	"bufio"
	"strconv"
)

// Protocol names accepted by valoisd -protocol and client Options.
const (
	ProtocolText = "text"
	ProtocolRESP = "resp"
	ProtocolAuto = "auto" // server-side: sniff the first byte per connection
)

// ServerCodec is one wire protocol from the server's side: it parses
// requests off a connection and appends replies into a caller-owned
// buffer. Implementations (TextCodec, RESPCodec) are stateful scratch
// holders and are owned by exactly one connection goroutine.
//
// Each codec has one scanner (its unexported scan, see framer) that
// decides from bytes alone where the first request of a buffer ends;
// ReadCommand and Complete are both that scanner, so what Complete calls
// whole is by construction what ReadCommand consumes without blocking.
//
// The append-style reply surface is the zero-allocation contract of the
// serving hot path: the connection loop reuses one connection-owned
// reply buffer per batch and issues a single write for all of it, so
// encoding a reply costs no allocation and no syscall of its own.
type ServerCodec interface {
	// Name reports the protocol name (ProtocolText or ProtocolRESP).
	Name() string
	// ReadCommand blocks until one request is framed, then parses and
	// consumes it. Errors are io errors, ErrUnknownVerb, or *ClientError
	// (Fatal ⇒ framing lost, close after replying); after a non-fatal
	// one the reader stands at the next request.
	ReadCommand(r *bufio.Reader) (Command, error)
	// Complete reports whether buf (the bytes already buffered in the
	// reader) starts with a whole request or a framing error, so
	// ReadCommand can be called without risking a blocking socket read.
	Complete(buf []byte) bool

	// Reply encoders, appending wire bytes to dst.
	AppendGetReply(dst []byte, key string, value []byte, found bool) []byte
	AppendSetReply(dst []byte) []byte
	AppendDeleteReply(dst []byte, deleted bool) []byte
	AppendRangeHeader(dst []byte, n int) []byte
	AppendRangeItem(dst []byte, key string, value []byte) []byte
	AppendRangeTrailer(dst []byte) []byte
	AppendStatsHeader(dst []byte, n int) []byte
	AppendStatItem(dst []byte, name, value string) []byte
	AppendStatsTrailer(dst []byte) []byte
	AppendPong(dst []byte) []byte
	AppendQuit(dst []byte) []byte
	AppendClientError(dst []byte, msg string) []byte
	AppendServerError(dst []byte, msg string) []byte
	AppendUnknownVerb(dst []byte) []byte
}

// Text reply encoders: the append-into-caller-buffer versions of the
// Write* helpers above, used by the batched serving path.

// AppendValueBlock appends one "VALUE <key> <n>\r\n<data>\r\n" block.
func AppendValueBlock(dst []byte, key string, value []byte) []byte {
	dst = append(dst, "VALUE "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(value)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, value...)
	return append(dst, '\r', '\n')
}

// appendSanitized appends msg with CR/LF flattened to spaces so a reply
// message can never break line framing.
func appendSanitized(dst []byte, msg string) []byte {
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c == '\r' || c == '\n' {
			c = ' '
		}
		dst = append(dst, c)
	}
	return dst
}

func (tc *TextCodec) AppendGetReply(dst []byte, key string, value []byte, found bool) []byte {
	if found {
		dst = AppendValueBlock(dst, key, value)
	}
	return append(dst, "END\r\n"...)
}

func (tc *TextCodec) AppendSetReply(dst []byte) []byte {
	return append(dst, "STORED\r\n"...)
}

func (tc *TextCodec) AppendDeleteReply(dst []byte, deleted bool) []byte {
	if deleted {
		return append(dst, "DELETED\r\n"...)
	}
	return append(dst, "NOT_FOUND\r\n"...)
}

func (tc *TextCodec) AppendRangeHeader(dst []byte, n int) []byte { return dst }

func (tc *TextCodec) AppendRangeItem(dst []byte, key string, value []byte) []byte {
	return AppendValueBlock(dst, key, value)
}

func (tc *TextCodec) AppendRangeTrailer(dst []byte) []byte {
	return append(dst, "END\r\n"...)
}

func (tc *TextCodec) AppendStatsHeader(dst []byte, n int) []byte { return dst }

func (tc *TextCodec) AppendStatItem(dst []byte, name, value string) []byte {
	dst = append(dst, "STAT "...)
	dst = append(dst, name...)
	dst = append(dst, ' ')
	dst = append(dst, value...)
	return append(dst, '\r', '\n')
}

func (tc *TextCodec) AppendStatsTrailer(dst []byte) []byte {
	return append(dst, "END\r\n"...)
}

// AppendPong is unreachable on the text protocol (its grammar has no
// PING) but kept total so the interface cannot panic.
func (tc *TextCodec) AppendPong(dst []byte) []byte {
	return append(dst, "PONG\r\n"...)
}

// AppendQuit appends nothing: the text protocol closes silently on QUIT.
func (tc *TextCodec) AppendQuit(dst []byte) []byte { return dst }

func (tc *TextCodec) AppendClientError(dst []byte, msg string) []byte {
	dst = append(dst, "CLIENT_ERROR "...)
	dst = appendSanitized(dst, msg)
	return append(dst, '\r', '\n')
}

func (tc *TextCodec) AppendServerError(dst []byte, msg string) []byte {
	dst = append(dst, "SERVER_ERROR "...)
	dst = appendSanitized(dst, msg)
	return append(dst, '\r', '\n')
}

func (tc *TextCodec) AppendUnknownVerb(dst []byte) []byte {
	return append(dst, "ERROR\r\n"...)
}
