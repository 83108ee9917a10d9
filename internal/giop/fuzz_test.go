package giop

import (
	"bytes"
	"reflect"
	"testing"

	"itdos/internal/cdr"
)

// FuzzGIOPParse feeds arbitrary bytes to the GIOP message parser. Byzantine
// senders reach Decode directly, so it must reject malformed input with an
// error — never a panic or runaway allocation — and any message it does
// accept must survive an encode → decode round trip unchanged.
func FuzzGIOPParse(f *testing.F) {
	f.Add([]byte("GIOP"))
	f.Add(EncodeCloseConnection(cdr.BigEndian))
	f.Add(EncodeCancelRequest(cdr.LittleEndian, 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		msg, err := Decode(data)
		if !bytes.Equal(data, in) {
			t.Fatal("Decode wrote its input, which a decoded Body aliases")
		}
		if err != nil {
			return
		}
		var out []byte
		switch msg.Type {
		case MsgRequest:
			out = EncodeRequest(msg.Order, msg.Request)
		case MsgReply:
			out = EncodeReply(msg.Order, msg.Reply)
		case MsgCancelRequest:
			out = EncodeCancelRequest(msg.Order, msg.CancelID)
		case MsgCloseConnection:
			out = EncodeCloseConnection(msg.Order)
		default:
			// MsgError has no encoder; nothing to round-trip.
			return
		}
		msg2, err := Decode(out)
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", msg.Type, err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip changed message:\n  was %+v\n  now %+v", msg, msg2)
		}
	})
}
