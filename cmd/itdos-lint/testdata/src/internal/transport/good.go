package transport

// Ranging over the sorted destinations, not the map: every replica sends in
// the same order.
func sendSorted(tr Transport, m map[string][]byte, sorted []string) {
	for _, to := range sorted {
		tr.Send("self", to, m[to])
	}
}
