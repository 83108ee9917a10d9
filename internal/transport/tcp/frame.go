package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"itdos/internal/transport"
)

// Wire format, one frame per transport message:
//
//	u32 bodyLen (big-endian) | body
//	body = u8 fromLen | from | u8 toLen | to | payload
//
// bodyLen counts the body only. Node identifiers are limited to 255 bytes
// by the u8 length prefixes; bodyLen is bounded by the connection's
// configured MaxFrame before any allocation, so a Byzantine peer cannot
// make us reserve memory it never sends.

// DefaultMaxFrame bounds a frame body when Config.MaxFrame is zero. Large
// enough for a fragmented SMIOP envelope with headroom, small enough that
// a malicious length prefix cannot balloon memory.
const DefaultMaxFrame = 1 << 20

// frameHeaderLen is the length-prefix size preceding every body.
const frameHeaderLen = 4

var (
	errFrameTooLarge  = errors.New("tcp: frame exceeds max size")
	errFrameTruncated = errors.New("tcp: truncated frame body")
)

// frameBodyLen is the length of the body AppendFrame would write.
func frameBodyLen(from, to transport.NodeID, payload []byte) int {
	return 1 + len(from) + 1 + len(to) + len(payload)
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. Identifiers longer than 255 bytes are an error.
func AppendFrame(dst []byte, from, to transport.NodeID, payload []byte) ([]byte, error) {
	if len(from) > 255 || len(to) > 255 {
		return dst, fmt.Errorf("tcp: node id too long (from %d, to %d bytes)", len(from), len(to))
	}
	bodyLen := frameBodyLen(from, to, payload)
	dst = binary.BigEndian.AppendUint32(dst, uint32(bodyLen))
	dst = append(dst, byte(len(from)))
	dst = append(dst, from...)
	dst = append(dst, byte(len(to)))
	dst = append(dst, to...)
	dst = append(dst, payload...)
	return dst, nil
}

// DecodeFrame parses one frame body (the bytes after the u32 length
// prefix). The returned payload aliases body; callers that retain it past
// the buffer's lifetime must copy.
func DecodeFrame(body []byte) (from, to transport.NodeID, payload []byte, err error) {
	if len(body) < 1 {
		return "", "", nil, errFrameTruncated
	}
	fromLen := int(body[0])
	body = body[1:]
	if fromLen > len(body) {
		return "", "", nil, errFrameTruncated
	}
	from = transport.NodeID(body[:fromLen])
	body = body[fromLen:]
	if len(body) < 1 {
		return "", "", nil, errFrameTruncated
	}
	toLen := int(body[0])
	body = body[1:]
	if toLen > len(body) {
		return "", "", nil, errFrameTruncated
	}
	to = transport.NodeID(body[:toLen])
	payload = body[toLen:]
	return from, to, payload, nil
}

// readFrame reads one length-prefixed frame body from r into a fresh
// buffer, rejecting bodies larger than maxFrame before allocating.
func readFrame(r io.Reader, maxFrame int) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	bodyLen := binary.BigEndian.Uint32(hdr[:])
	if bodyLen > uint32(maxFrame) {
		return nil, fmt.Errorf("%w: %d > %d", errFrameTooLarge, bodyLen, maxFrame)
	}
	body := make([]byte, int(bodyLen))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
