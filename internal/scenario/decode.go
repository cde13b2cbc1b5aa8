package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The spec's schema is its Go types. Every field a scenario file may set
// carries a `yaml:"key"` tag, and optionally
//
//	default:"v"   the value when the key is absent, written as in a file
//	range:"[a,b]" the values it may hold, written or defaulted: "(" and ")"
//	              exclude a bound, an empty bound is unbounded ("(0,)" is
//	              "positive"); on a list it holds for every element, on a
//	              pointer for the pointee when set
//
// decoder walks a YAML node tree onto a value by those tags, strictly:
// a key no field declares, a value of the wrong shape or a scalar that
// does not parse as the field's type is an error in errs, a value outside
// its range one in bounds, and the errors of one pass accumulate so a file
// reports everything at once. Cross-field rules (a target declared in
// setup, a payload that fits its service) are Spec.validate's.
type decoder struct {
	errs, bounds []string
}

func (d *decoder) errorf(format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf(format, args...))
}

var (
	durationType = reflect.TypeOf(time.Duration(0))
	opMixType    = reflect.TypeOf([]OpWeight(nil))
)

// weightRange bounds an op-mix weight: weights are relative, and a sum of
// eleven of them stays far inside an int.
const weightRange = "[1,1000000]"

// value decodes n onto v and reports whether it could.
func (d *decoder) value(v reflect.Value, n *node, path string) bool {
	switch {
	case v.Type() == opMixType:
		return d.opMix(v, n, path)
	case v.Kind() == reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return d.value(v.Elem(), n, path)
	case v.Kind() == reflect.Struct:
		return d.fields(v, n, path)
	case v.Kind() == reflect.Slice:
		if n.kind != listNode {
			d.errorf("%s: line %d: expected a list", path, n.line)
			return false
		}
		list, ok := reflect.MakeSlice(v.Type(), len(n.list), len(n.list)), true
		for i, item := range n.list {
			ok = d.value(list.Index(i), item, fmt.Sprintf("%s[%d]", path, i)) && ok
		}
		v.Set(list)
		return ok
	case n.kind != scalarNode:
		d.errorf("%s: line %d: expected a scalar value", path, n.line)
		return false
	}
	return d.scalar(v, n.scalar, path)
}

// scalar parses s as v's type.
func (d *decoder) scalar(v reflect.Value, s, path string) bool {
	if v.Type() == durationType {
		x, err := time.ParseDuration(s)
		if err != nil {
			d.errorf("%s: bad duration %q (want e.g. 500ms, 30s)", path, s)
			return false
		}
		v.SetInt(int64(x))
		return true
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(s)
	case reflect.Int, reflect.Int64:
		x, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			d.errorf("%s: bad integer %q", path, s)
			return false
		}
		v.SetInt(x)
	case reflect.Float64:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			d.errorf("%s: bad number %q", path, s)
			return false
		}
		v.SetFloat(x)
	case reflect.Bool:
		if s != "true" && s != "false" {
			d.errorf("%s: bad boolean %q (want true or false)", path, s)
			return false
		}
		v.SetBool(s == "true")
	default:
		panic(fmt.Sprintf("scenario: %s has no YAML form (%s)", path, v.Type()))
	}
	return true
}

// fields decodes a mapping onto the tagged fields of struct v. A nil n is
// an absent mapping: its fields still take their defaults and are still
// range-checked.
func (d *decoder) fields(v reflect.Value, n *node, path string) bool {
	if n != nil && n.kind != mapNode {
		d.errorf("%s: line %d: expected a mapping", path, n.line)
		return false
	}
	t, ok := v.Type(), true
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		tag := t.Field(i).Tag
		key := tag.Get("yaml")
		if key == "" {
			continue
		}
		keys = append(keys, key)
		fv, at, fok := v.Field(i), path+"."+key, true
		var c *node
		if n != nil {
			c = n.mapVals[key]
		}
		switch def := tag.Get("default"); {
		case c != nil:
			fok = d.value(fv, c, at)
		case def != "":
			d.scalar(fv, def, at)
		case fv.Kind() == reflect.Struct:
			fok = d.fields(fv, nil, at)
		}
		if rng := tag.Get("range"); fok && rng != "" {
			d.check(fv, rng, at)
		}
		ok = ok && fok
	}
	if n != nil {
		d.unknown(n, keys, path)
	}
	return ok
}

// opMix decodes a phase's op mix, a mapping from op kind to weight, into
// canonical (opKinds) order.
func (d *decoder) opMix(v reflect.Value, n *node, path string) bool {
	if n.kind != mapNode {
		d.errorf("%s: line %d: expected a mapping", path, n.line)
		return false
	}
	var mix []OpWeight
	ok := true
	for _, kind := range opKinds {
		if c := n.mapVals[kind]; c != nil {
			w := OpWeight{Op: kind}
			weight, at := reflect.ValueOf(&w.Weight).Elem(), path+"."+kind
			if d.value(weight, c, at) {
				d.check(weight, weightRange, at)
			} else {
				ok = false
			}
			mix = append(mix, w)
		}
	}
	d.unknown(n, opKinds, path)
	v.Set(reflect.ValueOf(mix))
	return ok
}

// unknown reports every key of n that is not one of valid.
func (d *decoder) unknown(n *node, valid []string, path string) {
	var sorted []string
	for _, k := range n.mapKeys {
		if slices.Contains(valid, k) {
			continue
		}
		if sorted == nil {
			sorted = slices.Clone(valid)
			slices.Sort(sorted)
		}
		d.errorf("%s: line %d: unknown field %q (valid: %s)",
			path, n.mapVals[k].line, k, strings.Join(sorted, ", "))
	}
}

// check reports v outside rng (see the tag grammar above).
func (d *decoder) check(v reflect.Value, rng, path string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			d.check(v.Elem(), rng, path)
		}
		return
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			d.check(v.Index(i), rng, fmt.Sprintf("%s[%d]", path, i))
		}
		return
	}
	x := v.Interface()
	var f float64
	if v.CanInt() {
		f = float64(v.Int())
	} else {
		f = v.Float()
	}
	lo, hi, _ := strings.Cut(rng[1:len(rng)-1], ",")
	loOpen, hiOpen := rng[0] == '(', rng[len(rng)-1] == ')'
	if inside(f, lo, loOpen, true) && inside(f, hi, hiOpen, false) {
		return
	}
	msg := fmt.Sprintf("%s must be >= %s", path, lo)
	switch {
	case hi != "":
		msg = fmt.Sprintf("%s %v outside %c%s, %s%c", path, x, rng[0], lo, hi, rng[len(rng)-1])
	case loOpen: // "(0,)": the schema has no other open lower bound (TestSchemaTags)
		msg = path + " must be positive"
	}
	d.bounds = append(d.bounds, msg)
}

// inside reports whether f is on the inner side of one bound: above it
// for a lower bound, below it for an upper one. An empty bound holds.
func inside(f float64, bound string, open, lower bool) bool {
	if bound == "" {
		return true
	}
	b, err := strconv.ParseFloat(bound, 64)
	if err != nil {
		panic("scenario: bad range bound " + strconv.Quote(bound))
	}
	switch {
	case lower && open:
		return f > b
	case lower:
		return f >= b
	case open:
		return f < b
	}
	return f <= b
}
