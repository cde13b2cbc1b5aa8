package tablestore

import (
	"fmt"
	"time"

	"azurebench/internal/payload"
)

// PropType enumerates the EDM property types Azure tables support.
type PropType int

// Property types.
const (
	TypeString PropType = iota
	TypeInt32
	TypeInt64
	TypeDouble
	TypeBool
	TypeDateTime
	TypeBinary
	TypeGUID
)

// String returns the EDM name of the type.
func (t PropType) String() string {
	switch t {
	case TypeString:
		return "Edm.String"
	case TypeInt32:
		return "Edm.Int32"
	case TypeInt64:
		return "Edm.Int64"
	case TypeDouble:
		return "Edm.Double"
	case TypeBool:
		return "Edm.Boolean"
	case TypeDateTime:
		return "Edm.DateTime"
	case TypeBinary:
		return "Edm.Binary"
	case TypeGUID:
		return "Edm.Guid"
	}
	return fmt.Sprintf("Edm.Unknown(%d)", int(t))
}

// Value is a typed table property value.
type Value struct {
	Type PropType
	S    string          // TypeString, TypeGUID
	I    int64           // TypeInt32, TypeInt64
	F    float64         // TypeDouble
	B    bool            // TypeBool
	T    time.Time       // TypeDateTime
	Bin  payload.Payload // TypeBinary
}

// String builds a string value.
func String(s string) Value { return Value{Type: TypeString, S: s} }

// Int32 builds a 32-bit integer value.
func Int32(i int32) Value { return Value{Type: TypeInt32, I: int64(i)} }

// Int64 builds a 64-bit integer value.
func Int64(i int64) Value { return Value{Type: TypeInt64, I: i} }

// Double builds a floating-point value.
func Double(f float64) Value { return Value{Type: TypeDouble, F: f} }

// Bool builds a boolean value.
func Bool(b bool) Value { return Value{Type: TypeBool, B: b} }

// DateTime builds a timestamp value.
func DateTime(t time.Time) Value { return Value{Type: TypeDateTime, T: t} }

// Binary builds a binary value carrying p.
func Binary(p payload.Payload) Value { return Value{Type: TypeBinary, Bin: p} }

// GUID builds a GUID value from its textual form.
func GUID(s string) Value { return Value{Type: TypeGUID, S: s} }

// Size returns the value's contribution to the entity size budget.
func (v Value) Size() int64 {
	switch v.Type {
	case TypeString, TypeGUID:
		return int64(len(v.S))
	case TypeInt32:
		return 4
	case TypeInt64, TypeDouble, TypeDateTime:
		return 8
	case TypeBool:
		return 1
	case TypeBinary:
		return v.Bin.Len()
	}
	return 0
}

// Equal reports deep equality of two values (same type and content).
func (v Value) Equal(w Value) bool {
	if v.Type != w.Type {
		return false
	}
	switch v.Type {
	case TypeString, TypeGUID:
		return v.S == w.S
	case TypeInt32, TypeInt64:
		return v.I == w.I
	case TypeDouble:
		return v.F == w.F
	case TypeBool:
		return v.B == w.B
	case TypeDateTime:
		return v.T.Equal(w.T)
	case TypeBinary:
		return payload.Equal(v.Bin, w.Bin)
	}
	return false
}

// compare orders two values of the same type: -1, 0, or +1. ok is false
// when the types are not comparable (different types, or binary, which
// Azure only supports for eq/ne — handled by the caller).
func (v Value) compare(w Value) (cmp int, ok bool) {
	if v.Type != w.Type {
		// Int32 and Int64 compare numerically across widths.
		if (v.Type == TypeInt32 || v.Type == TypeInt64) && (w.Type == TypeInt32 || w.Type == TypeInt64) {
			return cmp64(v.I, w.I), true
		}
		return 0, false
	}
	switch v.Type {
	case TypeString, TypeGUID:
		switch {
		case v.S < w.S:
			return -1, true
		case v.S > w.S:
			return 1, true
		}
		return 0, true
	case TypeInt32, TypeInt64:
		return cmp64(v.I, w.I), true
	case TypeDouble:
		switch {
		case v.F < w.F:
			return -1, true
		case v.F > w.F:
			return 1, true
		}
		return 0, true
	case TypeBool:
		switch {
		case !v.B && w.B:
			return -1, true
		case v.B && !w.B:
			return 1, true
		}
		return 0, true
	case TypeDateTime:
		switch {
		case v.T.Before(w.T):
			return -1, true
		case v.T.After(w.T):
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
