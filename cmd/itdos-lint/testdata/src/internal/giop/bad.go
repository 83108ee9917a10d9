package giop

import "encoding/binary"

// A 4-byte length field sized straight into make: a hostile 12-byte
// message can demand a 4 GiB allocation.
func decodeBody(d *Decoder) ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	out := make([]byte, n) // want:bounded-decode
	for i := range out {
		b, err := d.ReadOctet()
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// The same hole through encoding/binary and an integer conversion.
func decodeHeaderCount(b []byte) ([]uint32, error) {
	if len(b) < 4 {
		return nil, errShort
	}
	count := int(binary.BigEndian.Uint32(b))
	return make([]uint32, count), nil // want:bounded-decode
}

// Suppressed: the caller has already validated n against the session cap.
func decodePrevalidated(d *Decoder) ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil //itdos:nolint:bounded-decode // n validated against the session cap by the framing layer before this call
}

// decodeU32s is the keep-test row: smiop's decodeU32s with its 1<<16
// bound removed. No test sends it a hostile count.
func decodeU32s(d *Decoder) ([]uint32, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	out := make([]uint32, n) // want:bounded-decode
	for i := range out {
		if out[i], err = d.ReadULong(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
