package ir

import (
	"fmt"
	"strings"
)

// Print renders the module in parseable PIR text.  Print and Parse round-
// trip: Parse(Print(m)) yields a module that prints identically.
func Print(m *Module) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s\n", m.Name)
	for _, tn := range m.TypeNames() {
		t := m.Types[tn]
		fmt.Fprintf(&b, "\ntype %s struct {\n", t.Name)
		for _, f := range t.Fields {
			fmt.Fprintf(&b, "\t%s: %s\n", f.Name, f.Type.String())
		}
		b.WriteString("}\n")
	}
	for _, fn := range m.FuncNames() {
		printFunc(&b, m.Funcs[fn])
	}
	return b.String()
}

// PrintFunc renders one function in the same parseable PIR text Print
// emits for it.  The analysis cache fingerprints functions over these
// bytes: two functions that print identically behave identically under
// every analysis, so the rendering is the canonical content hash input.
func PrintFunc(f *Function) string {
	var b strings.Builder
	printFunc(&b, f)
	return b.String()
}

// PrintType renders one named struct type in Print's format (the other
// canonical cache-fingerprint input: field layout determines DSA cells
// and the unmodified-field performance rule).
func PrintType(t *Type) string {
	var b strings.Builder
	fmt.Fprintf(&b, "type %s struct {\n", t.Name)
	for _, f := range t.Fields {
		fmt.Fprintf(&b, "\t%s: %s\n", f.Name, f.Type.String())
	}
	b.WriteString("}\n")
	return b.String()
}

func printFunc(b *strings.Builder, f *Function) {
	fmt.Fprintf(b, "\nfunc %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.Name)
		if p.Type != nil {
			fmt.Fprintf(b, ": %s", p.Type.String())
		}
	}
	b.WriteString(")")
	if f.RetType != nil {
		fmt.Fprintf(b, " %s", f.RetType.String())
	}
	b.WriteString(" {\n")
	if f.File != "" {
		// PIR string literals have no escapes: the lexer takes the bytes
		// between the quotes verbatim, so they print verbatim.
		fmt.Fprintf(b, "\tfile \"%s\"\n", f.File)
	}
	line := 0
	for bi, blk := range f.Blocks {
		if bi > 0 || blk.Name != "entry" {
			fmt.Fprintf(b, "%s:\n", blk.Name)
		}
		for _, in := range blk.Instrs {
			fmt.Fprintf(b, "\t%s", in.String())
			if in.Line != 0 && in.Line != line {
				fmt.Fprintf(b, " @%d", in.Line)
				line = in.Line
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("}\n")
}
