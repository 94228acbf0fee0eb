package pmcontract

import "testing"

func TestZeroValueIsX86(t *testing.T) {
	var c Contract
	if c.ID != X86 || c.Name() != "x86" {
		t.Fatalf("zero Contract = %+v, want x86", c)
	}
	if c.HasDomain() || c.EffectiveID() != X86 {
		t.Fatalf("zero Contract must not expose a persistence domain")
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ID
		err  bool
	}{
		{"x86", X86, false},
		{"", X86, false},
		{"CXL", CXL, false},
		{" cxl ", CXL, false},
		{"arm", X86, true},
	} {
		got, err := Parse(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("Parse(%q) err = %v, want err=%v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Errorf("Parse(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if _, err := ParseContract("bogus"); err == nil {
		t.Fatalf("ParseContract(bogus) should error")
	}
	c, err := ParseContract("cxl")
	if err != nil || !c.HasDomain() || !c.Domain.Whole {
		t.Fatalf("ParseContract(cxl) = %+v, %v; want whole-domain CXL", c, err)
	}
}

func TestCXLSemantics(t *testing.T) {
	if !(Domain{}).Empty() || WholeDomain().Empty() {
		t.Fatalf("Empty() misclassifies domains")
	}
	whole := CXLContract(WholeDomain())
	if !whole.HasDomain() || whole.EffectiveID() != CXL {
		t.Fatalf("whole-domain CXL = %+v: want a domain and the CXL rule set", whole)
	}
	empty := CXLContract(Domain{})
	if empty.HasDomain() || empty.EffectiveID() != X86 {
		t.Fatalf("empty-domain CXL = %+v: want no domain and the x86 rule set", empty)
	}
	if (Contract{Domain: WholeDomain()}).HasDomain() {
		t.Fatalf("x86 must ignore a domain")
	}
}

func TestKeyStability(t *testing.T) {
	a := X86Contract()
	b := CXLContract(WholeDomain())
	c := CXLContract(Domain{})
	// Cache fingerprints embed these strings.
	for _, tc := range []struct {
		c    Contract
		want string
	}{
		{a, "pm=x86;dom=empty"},
		{b, "pm=cxl;dom=whole"},
		{c, "pm=cxl;dom=empty"},
	} {
		if got := tc.c.Key(); got != tc.want {
			t.Errorf("Key() = %q, want %q", got, tc.want)
		}
	}
	if a.Key() != X86Contract().Key() {
		t.Fatalf("Key must be deterministic")
	}
}
