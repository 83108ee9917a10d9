// Package cdr holds fixtures for the err-drop check.
package cdr

import "fmt"

type dec struct{ pos int }

func (d *dec) readULong() (uint32, error) { return 0, fmt.Errorf("truncated") }
func (d *dec) skip(n int) error           { d.pos += n; return nil }

func dropAll(d *dec) uint32 {
	d.skip(4)             // want:err-drop
	v, _ := d.readULong() // want:err-drop
	_ = d.skip(2)         // want:err-drop
	go d.skip(1)          // want:err-drop
	return v
}

func skipPadding(d *dec) {
	_ = d.skip(3) //itdos:nolint:err-drop // padding: a short skip surfaces at the next read
}

// replyBody is the keep-test row: giop's decodeReply with the error of its
// body read dropped, so a truncated reply decodes with an empty body.
func replyBody(d *dec) (uint32, error) {
	var err error
	body, _ := d.readULong() // want:err-drop
	if err != nil {
		return 0, err
	}
	return body, nil
}
