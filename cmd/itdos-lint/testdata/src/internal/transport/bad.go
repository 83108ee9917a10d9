package transport

// Sending map entries in range order: every replica puts the messages on
// the wire in a different order.
func sendUnsorted(tr Transport, m map[string][]byte) {
	for to, p := range m {
		tr.Send("self", to, p) // want:det-map
	}
}
