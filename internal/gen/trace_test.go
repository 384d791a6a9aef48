package gen

import (
	"testing"

	"repro/internal/dtddata"
	"repro/internal/oracle"
)

// TestGenerateWithTraceConsistency: the trace has one concrete element per
// step, each step's test admits its trace element, and the expression
// matches the trace as a path (descendant steps allow the zero-gap case).
func TestGenerateWithTraceConsistency(t *testing.T) {
	g := NewXPathGenerator(dtddata.NITF(), 0.4, 0.3, 17)
	g.MinLen = 2
	for i := 0; i < 3000; i++ {
		x, trace := g.GenerateWithTrace()
		if len(trace) != x.Len() {
			t.Fatalf("trace length %d != steps %d for %s", len(trace), x.Len(), x)
		}
		for j, st := range x.Steps {
			if !st.IsWildcard() && st.Name != trace[j] {
				t.Fatalf("step %d of %s is %q but trace says %q", j, x, st.Name, trace[j])
			}
		}
		if !x.Relative && !oracle.Selects(x, trace, nil, false) {
			t.Fatalf("%s does not match its own trace %v", x, trace)
		}
	}
}

// TestTraceElementsAreDeclared: every trace element exists in the DTD.
func TestTraceElementsAreDeclared(t *testing.T) {
	d := dtddata.PSD()
	g := NewXPathGenerator(d, 0.3, 0.2, 18)
	for i := 0; i < 1000; i++ {
		_, trace := g.GenerateWithTrace()
		for _, el := range trace {
			if d.Element(el) == nil {
				t.Fatalf("trace element %q not declared", el)
			}
		}
	}
}
