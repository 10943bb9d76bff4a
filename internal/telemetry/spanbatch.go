package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// The span batch: a compact binary form of a slice of spans. A cluster
// worker ships its trace of one cell as one batch, and a Tracer holds its
// sealed spans as batches. A run of the example tournament records ~93 spans
// with ~1,170 attributes, most of them numeric and most keys repeated in
// every window span, so the batch stores each distinct string (kinds, names,
// attribute keys and string values) once, integers as varints and floats as
// their raw bits:
//
//	batch = version:byte
//	        nstrings:uvarint (len:uvarint bytes)*nstrings
//	        nspans:uvarint nattrs:uvarint span*nspans
//	span  = id:uvarint parent:uvarint kind:str name:str
//	        start:varint (minus the previous span's start) dur:varint
//	        flags:byte nattrs:uvarint attr*nattrs
//	attr  = key:str tag:byte [str:str] [num:8 bytes, little-endian bits]
//	str   = uvarint index into the string table
//
// The header's nattrs is the batch's total, so the decoder allocates every
// attribute in one slice. Every count is checked against the bytes left
// before anything is allocated, so a short input cannot claim a large batch.
// The float bits round-trip what JSON cannot (−0, NaN, Inf), and an Attr
// keeps both Str and Num whatever IsNum says.
const spanBatchVersion = 1

// Span flags.
const spanOpen = 1 << 0

// Attr tags: which value fields follow the key.
const (
	attrIsNum = 1 << 0 // Attr.IsNum
	attrStr   = 1 << 1 // a non-empty Str follows
	attrNum   = 1 << 2 // Num's bits follow (absent means +0)
)

// The fewest bytes one span and one attribute occupy: one per field.
const (
	minSpanBytes = 8
	minAttrBytes = 2
)

// SpanBatchError reports a span batch that does not decode: an unknown
// version, a truncated or overlong varint, a count larger than the bytes
// left can hold, a string index outside the table, unknown flag bits or
// trailing bytes. Offset is the byte where decoding stopped.
type SpanBatchError struct {
	Offset int
	Reason string
}

func (e *SpanBatchError) Error() string {
	return fmt.Sprintf("telemetry: span batch: %s at byte %d", e.Reason, e.Offset)
}

// EncodeSpanBatch encodes spans as one batch of the current version.
func EncodeSpanBatch(spans []Span) []byte {
	e := spanEncoders.Get().(*spanEncoder)
	defer spanEncoders.Put(e)
	return e.encode(spans)
}

// spanEncoder is the scratch space of one encode: the string index and
// table, and the head and body before they are joined. A service seals each
// job's tracer once per cell, so encoders are pooled and an encode allocates
// only the batch it returns.
type spanEncoder struct {
	index      map[string]uint64
	table      []string
	head, body []byte
}

var spanEncoders = sync.Pool{New: func() any { return &spanEncoder{index: map[string]uint64{}} }}

// str appends s's index in the string table, adding s if it is new.
func (e *spanEncoder) str(b []byte, s string) []byte {
	i, ok := e.index[s]
	if !ok {
		i = uint64(len(e.table))
		e.index[s] = i
		e.table = append(e.table, s)
	}
	return binary.AppendUvarint(b, i)
}

// encode encodes spans, then empties the encoder, so a pooled encoder keeps
// none of their strings alive.
func (e *spanEncoder) encode(spans []Span) []byte {
	nattrs := 0
	for i := range spans {
		nattrs += len(spans[i].Attrs)
	}
	body := binary.AppendUvarint(e.body[:0], uint64(len(spans)))
	body = binary.AppendUvarint(body, uint64(nattrs))
	var prev int64
	for i := range spans {
		sp := &spans[i]
		body = binary.AppendUvarint(body, uint64(sp.ID))
		body = binary.AppendUvarint(body, uint64(sp.Parent))
		body = e.str(body, sp.Kind)
		body = e.str(body, sp.Name)
		body = binary.AppendVarint(body, sp.StartUS-prev) // wraps, and so does the decoder's sum
		prev = sp.StartUS
		body = binary.AppendVarint(body, sp.DurUS)
		var flags byte
		if sp.Open {
			flags |= spanOpen
		}
		body = append(body, flags)
		body = binary.AppendUvarint(body, uint64(len(sp.Attrs)))
		for _, a := range sp.Attrs {
			body = e.str(body, a.Key)
			bits := math.Float64bits(a.Num)
			var tag byte
			if a.IsNum {
				tag |= attrIsNum
			}
			if a.Str != "" {
				tag |= attrStr
			}
			if bits != 0 {
				tag |= attrNum
			}
			body = append(body, tag)
			if a.Str != "" {
				body = e.str(body, a.Str)
			}
			if bits != 0 {
				body = binary.LittleEndian.AppendUint64(body, bits)
			}
		}
	}
	head := binary.AppendUvarint(append(e.head[:0], spanBatchVersion), uint64(len(e.table)))
	for _, s := range e.table {
		head = binary.AppendUvarint(head, uint64(len(s)))
		head = append(head, s...)
	}
	// One exact-size result: a Tracer keeps it for the life of its job.
	out := append(append(make([]byte, 0, len(head)+len(body)), head...), body...)
	clear(e.index)
	clear(e.table)
	e.table, e.head, e.body = e.table[:0], head[:0], body[:0]
	return out
}

// spanReader walks a batch, stopping at the first error.
type spanReader struct {
	buf []byte
	off int
	err *SpanBatchError
}

func (r *spanReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &SpanBatchError{Offset: r.off, Reason: fmt.Sprintf(format, args...)}
	}
}

func (r *spanReader) left() int { return len(r.buf) - r.off }

func (r *spanReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad %s varint", what)
		return 0
	}
	r.off += n
	return v
}

func (r *spanReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad %s varint", what)
		return 0
	}
	r.off += n
	return v
}

func (r *spanReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.left() < 1 {
		r.fail("missing %s", what)
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// DecodeSpanBatch decodes a batch written by EncodeSpanBatch. Any input it
// cannot decode returns a *SpanBatchError.
func DecodeSpanBatch(buf []byte) ([]Span, error) {
	r := &spanReader{buf: buf}
	if v := r.byte("version"); r.err == nil && v != spanBatchVersion {
		r.off = 0
		r.fail("unknown version %d", v)
	}
	table := r.strings()
	str := func(what string) string {
		i := r.uvarint(what)
		if r.err != nil {
			return ""
		}
		if i >= uint64(len(table)) {
			r.fail("%s index %d outside the %d-string table", what, i, len(table))
			return ""
		}
		return table[i]
	}
	nspans := r.uvarint("span count")
	nattrs := r.uvarint("attribute count")
	if r.err == nil && (nspans > uint64(r.left()/minSpanBytes) ||
		nattrs > uint64((r.left()-int(nspans)*minSpanBytes)/minAttrBytes)) {
		r.fail("%d spans with %d attributes need more than the %d bytes left", nspans, nattrs, r.left())
	}
	if r.err != nil {
		return nil, r.err
	}
	var spans []Span
	if nspans > 0 {
		spans = make([]Span, nspans)
	}
	attrs := make([]Attr, nattrs)
	var prev int64
	for i := range spans {
		sp := &spans[i]
		sp.ID = SpanID(r.uvarint("span id"))
		sp.Parent = SpanID(r.uvarint("parent id"))
		sp.Kind = str("kind")
		sp.Name = str("name")
		sp.StartUS = prev + r.varint("start")
		prev = sp.StartUS
		sp.DurUS = r.varint("duration")
		flags := r.byte("span flags")
		if flags&^spanOpen != 0 {
			r.fail("unknown span flags %#x", flags)
		}
		sp.Open = flags&spanOpen != 0
		n := r.uvarint("attribute count")
		if r.err == nil && n > uint64(len(attrs)) {
			r.fail("span %d claims %d attributes, %d are left", i, n, len(attrs))
		}
		if r.err != nil {
			return nil, r.err
		}
		if n > 0 {
			// The full slice expression keeps an append to one span's
			// attributes from overwriting the next span's.
			sp.Attrs, attrs = attrs[:n:n], attrs[n:]
		}
		for j := range sp.Attrs {
			a := &sp.Attrs[j]
			a.Key = str("attribute key")
			tag := r.byte("attribute tag")
			if tag&^(attrIsNum|attrStr|attrNum) != 0 {
				r.fail("unknown attribute tag %#x", tag)
			}
			a.IsNum = tag&attrIsNum != 0
			if tag&attrStr != 0 {
				a.Str = str("attribute string")
			}
			if tag&attrNum != 0 && r.err == nil {
				if r.left() < 8 {
					r.fail("truncated attribute number")
				} else {
					a.Num = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
					r.off += 8
				}
			}
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if len(attrs) != 0 {
		r.fail("%d attributes in the header are not in any span", len(attrs))
	} else if r.left() != 0 {
		r.fail("%d trailing bytes", r.left())
	}
	if r.err != nil {
		return nil, r.err
	}
	return spans, nil
}

// strings reads the string table.
func (r *spanReader) strings() []string {
	n := r.uvarint("string count")
	if r.err == nil && n > uint64(r.left()) {
		r.fail("%d strings need more than the %d bytes left", n, r.left())
	}
	if r.err != nil {
		return nil
	}
	table := make([]string, n)
	for i := range table {
		l := r.uvarint("string length")
		if r.err == nil && l > uint64(r.left()) {
			r.fail("string of %d bytes exceeds the %d bytes left", l, r.left())
		}
		if r.err != nil {
			return nil
		}
		table[i] = string(r.buf[r.off : r.off+int(l)])
		r.off += int(l)
	}
	return table
}
