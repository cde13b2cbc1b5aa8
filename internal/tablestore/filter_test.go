package tablestore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/vclock"
)

func testEntity() *Entity {
	return &Entity{
		PartitionKey: "worker-3",
		RowKey:       "row-0042",
		Timestamp:    time.Date(2012, 5, 21, 10, 0, 0, 0, time.UTC),
		Props: map[string]Value{
			"Name":    String("azure"),
			"Size":    Int32(42),
			"Huge":    Int64(5_000_000_000),
			"Ratio":   Double(0.5),
			"Active":  Bool(true),
			"Created": DateTime(time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)),
			"Blob":    Binary(payload.String("abc")),
			"Quote":   String("it's"),
		},
	}
}

func evalFilter(t *testing.T, src string) bool {
	t.Helper()
	f, err := ParseFilter(src)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", src, err)
	}
	got, err := f.Eval(ReadOnly(testEntity()))
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return got
}

func TestFilterComparisons(t *testing.T) {
	cases := map[string]bool{
		"Size eq 42":                 true,
		"Size ne 42":                 false,
		"Size gt 41":                 true,
		"Size gt 42":                 false,
		"Size ge 42":                 true,
		"Size lt 100":                true,
		"Size le 42":                 true,
		"Size le 41":                 false,
		"Name eq 'azure'":            true,
		"Name ne 'azure'":            false,
		"Name gt 'aaa'":              true,
		"Ratio eq 0.5":               true,
		"Ratio lt 0.6":               true,
		"Huge eq 5000000000L":        true,
		"Huge gt 42":                 true, // int32/int64 cross-width comparison
		"Active eq true":             true,
		"Active eq false":            false,
		"PartitionKey eq 'worker-3'": true,
		"RowKey ge 'row-0042'":       true,
		"RowKey gt 'row-0042'":       false,
		"Created eq datetime'2012-01-01T00:00:00Z'":   true,
		"Created lt datetime'2013-01-01T00:00:00Z'":   true,
		"Timestamp ge datetime'2012-05-21T00:00:00Z'": true,
	}
	for src, want := range cases {
		if got := evalFilter(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestFilterLogicalOperators(t *testing.T) {
	cases := map[string]bool{
		"Size eq 42 and Active eq true":             true,
		"Size eq 42 and Active eq false":            false,
		"Size eq 0 or Name eq 'azure'":              true,
		"not Size eq 0":                             true,
		"not (Size eq 42)":                          false,
		"(Size eq 0 or Size eq 42) and Active":      true,
		"Size eq 42 or BadProp eq 1":                true, // short circuit
		"Active and not (Name eq 'x' or Size lt 5)": true,
	}
	for src, want := range cases {
		if got := evalFilter(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestFilterPrecedenceAndOverOr(t *testing.T) {
	// a or b and c parses as a or (b and c).
	if !evalFilter(t, "Size eq 42 or Size eq 0 and Name eq 'nope'") {
		t.Fatal("precedence wrong: expected true")
	}
	if evalFilter(t, "(Size eq 42 or Size eq 0) and Name eq 'nope'") {
		t.Fatal("explicit grouping wrong: expected false")
	}
}

func TestFilterMissingPropertyNeverMatches(t *testing.T) {
	for _, src := range []string{"Missing eq 1", "Missing ne 1", "Missing gt 0", "Missing lt 0"} {
		if evalFilter(t, src) {
			t.Errorf("%q matched against missing property", src)
		}
	}
	// But "not Missing eq 1" is true (negation of no-match).
	if !evalFilter(t, "not Missing eq 1") {
		t.Error("negated missing-property comparison should match")
	}
}

func TestFilterTypeMismatchNeverMatchesOrdering(t *testing.T) {
	if evalFilter(t, "Name gt 5") {
		t.Error("string > int matched")
	}
	if evalFilter(t, "Name eq 5") {
		t.Error("string eq int matched")
	}
	if !evalFilter(t, "Name ne 5") {
		t.Error("string ne int should match (different types are unequal)")
	}
}

func TestFilterBinaryEquality(t *testing.T) {
	// Binary supports eq/ne against another binary property; ordering does not match.
	e := testEntity()
	f, err := ParseFilter("Blob eq Blob")
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Eval(ReadOnly(e))
	if err != nil || !got {
		t.Fatalf("Blob eq Blob = %v, %v", got, err)
	}
	f, _ = ParseFilter("Blob gt Blob")
	got, err = f.Eval(ReadOnly(e))
	if err != nil || got {
		t.Fatalf("Blob gt Blob = %v, %v (binary ordering must not match)", got, err)
	}
}

func TestFilterQuotedQuote(t *testing.T) {
	if !evalFilter(t, "Quote eq 'it''s'") {
		t.Fatal("escaped quote literal failed")
	}
}

func TestFilterNegativeAndFloatLiterals(t *testing.T) {
	if evalFilter(t, "Size lt -1") {
		t.Fatal("negative literal mis-parsed")
	}
	if !evalFilter(t, "Ratio gt -0.5") {
		t.Fatal("negative float literal mis-parsed")
	}
	if !evalFilter(t, "Ratio lt 1e3") {
		t.Fatal("exponent literal mis-parsed")
	}
}

func TestFilterGUIDLiteral(t *testing.T) {
	e := testEntity()
	e.Props["ID"] = GUID("0f8fad5b-d9cb-469f-a165-70867728950e")
	f, err := ParseFilter("ID eq guid'0f8fad5b-d9cb-469f-a165-70867728950e'")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Eval(ReadOnly(e)); !got {
		t.Fatal("GUID comparison failed")
	}
}

func TestFilterParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Size eq",
		"eq 5",
		"(Size eq 5",
		"Size eq 'unterminated",
		"Size @@ 5",
		"Size eq 5 extra",
		"Created eq datetime'not-a-date'",
		"Size eq 99999999999999999999",
	}
	for _, src := range bad {
		if _, err := ParseFilter(src); err == nil {
			t.Errorf("ParseFilter(%q) accepted", src)
		}
	}
}

func TestFilterBareNonBooleanOperandErrors(t *testing.T) {
	f, err := ParseFilter("Size")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Eval(ReadOnly(testEntity())); err == nil {
		t.Fatal("bare int operand evaluated without error")
	}
	// Bare missing property is false, not an error.
	f, _ = ParseFilter("Missing")
	got, err := f.Eval(ReadOnly(testEntity()))
	if err != nil || got {
		t.Fatalf("bare missing property = %v, %v", got, err)
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	src := "PartitionKey eq 'p' and Size gt 5"
	f, err := ParseFilter(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != src {
		t.Fatalf("String() = %q", f.String())
	}
}

// TestFilterPropertyEvalConsistency: for random int values, the six
// comparison operators must agree with Go's own comparison.
func TestFilterPropertyEvalConsistency(t *testing.T) {
	f := func(a, b int32) bool {
		e := &Entity{PartitionKey: "p", RowKey: "r", Props: map[string]Value{"X": Int32(a)}}
		checks := map[string]bool{
			"eq": a == b, "ne": a != b, "gt": a > b,
			"ge": a >= b, "lt": a < b, "le": a <= b,
		}
		for op, want := range checks {
			expr, err := ParseFilter(fmt.Sprintf("X %s %d", op, b))
			if err != nil {
				return false
			}
			got, err := expr.Eval(ReadOnly(e))
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// fuzzTable fills engine and model with the same small table: four
// partitions of six rows (one key a prefix of another, one row key
// empty), Flag a boolean on some rows, a string on others and absent on
// the rest — so a filter can match, miss, or fail, depending on which
// rows it is put to.
func fuzzTable(t testing.TB) (*Store, *model) {
	clk := &vclock.Manual{}
	eng, ref := New(clk), newModel(clk)
	if err := eng.CreateTable("Fuzz"); err != nil {
		t.Fatal(err)
	}
	if err := ref.CreateTable("Fuzz"); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, pk := range []string{"p0", "p1", "p1x", "p2"} {
		for _, rk := range []string{"", "r0", "r1", "r1x", "r2", "r3"} {
			e := &Entity{PartitionKey: pk, RowKey: rk, Props: map[string]Value{"V": Int32(int32(n % 5)), "S": String(rk)}}
			switch n % 3 {
			case 0:
				e.Props["Flag"] = Bool(n%2 == 0)
			case 1:
				e.Props["Flag"] = String("not a bool")
			}
			n++
			if _, err := eng.Insert("Fuzz", e); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.insert("Fuzz", e, insertStrict); err != nil {
				t.Fatal(err)
			}
		}
	}
	return eng, ref
}

// FuzzParseFilter: the parser never panics; a filter that parses prints
// back to a filter that parses to the same thing; and the planned Query
// (seek, stop, whole filter on what lies between) returns exactly what
// evaluating the filter on every row returns — entities, order,
// continuation mark and error. The seed corpus in testdata/fuzz holds the
// cases the planner must not get wrong: a failing operand before and
// after a key comparison, key comparisons under or/not, and key
// comparisons against literals that are not plain strings.
func FuzzParseFilter(f *testing.F) {
	eng, ref := fuzzTable(f)
	keys := []string{"", "p0", "p1", "p1x", "p2", "r1", "r1x", "zz"}
	f.Fuzz(func(t *testing.T, src string, top, fromPK, fromRK uint8) {
		expr, err := ParseFilter(src)
		if err == nil {
			again, err := ParseFilter(expr.String())
			if err != nil || again.String() != expr.String() {
				t.Fatalf("ParseFilter(%q).String() = %q does not parse back: %v", src, expr.String(), err)
			}
		}
		from := Continuation{NextPartitionKey: keys[int(fromPK)%len(keys)], NextRowKey: keys[int(fromRK)%len(keys)]}
		got, gerr := eng.Query("Fuzz", src, int(top%8), from)
		want, werr := ref.Query("Fuzz", src, int(top%8), from)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("Query(%q, top %d, from %+v): planned error %v, full-scan error %v", src, top%8, from, gerr, werr)
		}
		if !bytes.Equal(encode(got), encode(want)) {
			t.Fatalf("Query(%q, top %d, from %+v):\nplanned   %s\nfull scan %s", src, top%8, from, render(got), render(want))
		}
	})
}
