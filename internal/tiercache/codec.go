package tiercache

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// errTruncated is the Decoder's sticky error for a read past the input.
var errTruncated = errors.New("truncated cache payload")

// AppendString appends s as a uvarint length followed by its bytes, the
// string encoding Decoder.String reads.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Decoder is a bounds-checked cursor with a sticky error over a codec
// payload: once a read fails, every later read returns a zero value, so a
// codec decodes straight through and checks Err (or End) once.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a cursor over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Header consumes the codec's magic and version byte, rejecting any other.
func (d *Decoder) Header(magic string, version byte) error {
	if string(d.Take(len(magic))) != magic {
		return fmt.Errorf("bad %s magic", magic)
	}
	if v := d.Take(1); v == nil || v[0] != version {
		return fmt.Errorf("stale %s payload version", magic)
	}
	return nil
}

// Take consumes the next n bytes (nil, with the error set, past the end).
func (d *Decoder) Take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.buf) {
		d.fail()
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

// Uvarint consumes one uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// String consumes one AppendString-encoded string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	return string(d.Take(int(n)))
}

// Uint64 consumes one big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.Take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Err returns the first read error, if any.
func (d *Decoder) Err() error { return d.err }

// End returns the first read error, or an error if input remains: a payload
// must be consumed exactly.
func (d *Decoder) End() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return nil
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
}
