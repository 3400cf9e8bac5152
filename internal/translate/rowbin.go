// Package translate implements schema-based data translation — §5's
// "major opportunity ... to design schema-aware data translation
// algorithms that are driven by schema information": converting JSON
// collections into an Avro-like row binary format and a Parquet-like
// columnar format, both driven by a typelang schema (typically one
// produced by internal/infer).
//
// Substitution note: the real Avro and Parquet
// are large framework ecosystems; what §5 needs is their *shape* —
// schema-driven binary rows (no field names on the wire, varint-packed
// scalars) and column-major storage with per-column encoding. Both
// formats here are self-contained but follow those layouts, so the
// size/scan-time effects the tutorial attributes to schema-aware
// translation are measurable.
package translate

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/jsonvalue"
	"repro/internal/typelang"
)

// EncodeRow appends the Avro-like binary encoding of v under schema to
// dst. The wire format, like Avro's, carries no field names: the
// schema dictates the layout.
//
//	Null        -> nothing
//	Bool        -> 1 byte
//	Int         -> zigzag varint
//	Num         -> 8-byte little-endian IEEE 754
//	Str         -> varint length + UTF-8 bytes
//	Array(T)    -> varint count + count encodings of T
//	Record      -> fields in schema (name) order; optional fields are
//	               preceded by a presence byte
//	Union       -> varint branch index + encoding of that branch
//	Any         -> varint length + compact JSON text (the escape hatch)
func EncodeRow(dst []byte, v *jsonvalue.Value, schema *typelang.Type) ([]byte, error) {
	return encodeValue(dst, v, schema)
}

func encodeValue(dst []byte, v *jsonvalue.Value, t *typelang.Type) ([]byte, error) {
	switch t.Kind {
	case typelang.KNull:
		if v.Kind() != jsonvalue.Null {
			return nil, typeErr(v, t)
		}
		return dst, nil
	case typelang.KBool:
		if v.Kind() != jsonvalue.Bool {
			return nil, typeErr(v, t)
		}
		if v.Bool() {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case typelang.KInt:
		if !v.IsInt() {
			return nil, typeErr(v, t)
		}
		return binary.AppendVarint(dst, v.Int()), nil
	case typelang.KNum:
		if v.Kind() != jsonvalue.Number {
			return nil, typeErr(v, t)
		}
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Num())), nil
	case typelang.KStr:
		if v.Kind() != jsonvalue.String {
			return nil, typeErr(v, t)
		}
		dst = binary.AppendUvarint(dst, uint64(len(v.Str())))
		return append(dst, v.Str()...), nil
	case typelang.KArray:
		if v.Kind() != jsonvalue.Array {
			return nil, typeErr(v, t)
		}
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
		var err error
		for _, e := range v.Elems() {
			if dst, err = encodeValue(dst, e, t.Elem); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case typelang.KRecord:
		if v.Kind() != jsonvalue.Object {
			return nil, typeErr(v, t)
		}
		var err error
		for _, f := range t.Fields {
			fv, present := v.Get(f.Name)
			if f.Optional {
				if !present {
					dst = append(dst, 0)
					continue
				}
				dst = append(dst, 1)
			} else if !present {
				return nil, fmt.Errorf("translate: missing required field %q", f.Name)
			}
			if dst, err = encodeValue(dst, fv, f.Type); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case typelang.KUnion:
		for i, alt := range t.Alts {
			if alt.Matches(v) {
				dst = binary.AppendUvarint(dst, uint64(i))
				return encodeValue(dst, v, alt)
			}
		}
		return nil, fmt.Errorf("translate: value matches no union branch of %s", t)
	case typelang.KAny:
		raw := appendCompactJSON(nil, v)
		dst = binary.AppendUvarint(dst, uint64(len(raw)))
		return append(dst, raw...), nil
	default:
		return nil, fmt.Errorf("translate: cannot encode under %s", t.Kind)
	}
}

func typeErr(v *jsonvalue.Value, t *typelang.Type) error {
	return fmt.Errorf("translate: value kind %s does not fit schema %s", v.Kind(), t)
}

// DecodeRow decodes one value from data under schema, returning the
// value and the remaining bytes.
func DecodeRow(data []byte, schema *typelang.Type) (*jsonvalue.Value, []byte, error) {
	return decodeValue(data, schema)
}

func decodeValue(data []byte, t *typelang.Type) (*jsonvalue.Value, []byte, error) {
	switch t.Kind {
	case typelang.KNull:
		return jsonvalue.NewNull(), data, nil
	case typelang.KBool:
		if len(data) < 1 {
			return nil, nil, errShort(t)
		}
		return jsonvalue.NewBool(data[0] != 0), data[1:], nil
	case typelang.KInt:
		n, sz := binary.Varint(data)
		if sz <= 0 {
			return nil, nil, errShort(t)
		}
		return jsonvalue.NewInt(n), data[sz:], nil
	case typelang.KNum:
		if len(data) < 8 {
			return nil, nil, errShort(t)
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(data))
		return jsonvalue.NewNumber(f), data[8:], nil
	case typelang.KStr:
		n, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < n {
			return nil, nil, errShort(t)
		}
		return jsonvalue.NewString(string(data[sz : sz+int(n)])), data[sz+int(n):], nil
	case typelang.KArray:
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, nil, errShort(t)
		}
		data = data[sz:]
		elems := make([]*jsonvalue.Value, 0, n)
		for i := uint64(0); i < n; i++ {
			var e *jsonvalue.Value
			var err error
			if e, data, err = decodeValue(data, t.Elem); err != nil {
				return nil, nil, err
			}
			elems = append(elems, e)
		}
		return jsonvalue.NewArray(elems...), data, nil
	case typelang.KRecord:
		fields := make([]jsonvalue.Field, 0, len(t.Fields))
		for _, f := range t.Fields {
			if f.Optional {
				if len(data) < 1 {
					return nil, nil, errShort(t)
				}
				present := data[0] != 0
				data = data[1:]
				if !present {
					continue
				}
			}
			var fv *jsonvalue.Value
			var err error
			if fv, data, err = decodeValue(data, f.Type); err != nil {
				return nil, nil, err
			}
			fields = append(fields, jsonvalue.Field{Name: f.Name, Value: fv})
		}
		return jsonvalue.NewObject(fields...), data, nil
	case typelang.KUnion:
		branch, sz := binary.Uvarint(data)
		if sz <= 0 || branch >= uint64(len(t.Alts)) {
			return nil, nil, errShort(t)
		}
		return decodeValue(data[sz:], t.Alts[branch])
	case typelang.KAny:
		n, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < n {
			return nil, nil, errShort(t)
		}
		v, err := parseCompactJSON(data[sz : sz+int(n)])
		if err != nil {
			return nil, nil, err
		}
		return v, data[sz+int(n):], nil
	default:
		return nil, nil, fmt.Errorf("translate: cannot decode under %s", t.Kind)
	}
}

func errShort(t *typelang.Type) error {
	return fmt.Errorf("translate: truncated input decoding %s", t)
}

// EncodeCollection encodes every document, length-prefixing each row.
func EncodeCollection(docs []*jsonvalue.Value, schema *typelang.Type) ([]byte, error) {
	var out []byte
	var row []byte
	for i, d := range docs {
		var err error
		row, err = EncodeRow(row[:0], d, schema)
		if err != nil {
			return nil, fmt.Errorf("doc %d: %w", i, err)
		}
		out = binary.AppendUvarint(out, uint64(len(row)))
		out = append(out, row...)
	}
	return out, nil
}

// DecodeCollection reverses EncodeCollection.
func DecodeCollection(data []byte, schema *typelang.Type) ([]*jsonvalue.Value, error) {
	var out []*jsonvalue.Value
	for len(data) > 0 {
		n, sz := binary.Uvarint(data)
		if sz <= 0 || uint64(len(data)-sz) < n {
			return nil, fmt.Errorf("translate: truncated row header")
		}
		row := data[sz : sz+int(n)]
		v, rest, err := DecodeRow(row, schema)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("translate: %d stray bytes after row", len(rest))
		}
		out = append(out, v)
		data = data[sz+int(n):]
	}
	return out, nil
}
