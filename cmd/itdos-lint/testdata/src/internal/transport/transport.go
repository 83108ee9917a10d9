// Package transport mirrors the product transport contract for det-map:
// protocol code sends through the interface, whichever backend is behind it.
package transport

// Transport is the send half of the product contract.
type Transport interface {
	Send(from, to string, payload []byte)
}
