package xmlrouter

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/pmatch"
	"repro/internal/stream"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// BenchmarkStreamMatch pins the streaming matcher's headline property
// (internal/stream, DESIGN.md §5e): routing cost is proportional to
// document depth × automaton activity, not document size. The same raw XML
// body is matched against the same automaton two ways, at the matcher layer
// without a broker: "stream" runs the automaton over the bytes in one pass,
// "decompose" parses the body into a tree (xmldoc.Parse), decomposes it into
// annotated root-to-leaf paths and matches each — while the document grows
// 1×→100× at fixed depth. Streaming allocs/op must stay flat across the
// sweep (the matcher, cursor, and per-frame stacks are pooled); the
// decompose column grows with size because parsing materialises the tree.
// EXPERIMENTS.md and BENCH_stream.json record measured numbers.
func BenchmarkStreamMatch(b *testing.B) {
	// One fixed-depth section; document size scales by repetition only, so
	// depth, names, and match structure are identical across sizes.
	const section = `<section id="s1" class="x"><head><title>t</title></head>` +
		`<body><p>text &amp; more</p><quote><attrib>q</attrib></quote></body></section>`
	mkRaw := func(n int) []byte {
		var sb strings.Builder
		sb.WriteString("<doc>")
		for i := 0; i < n; i++ {
			sb.WriteString(section)
		}
		sb.WriteString("</doc>")
		return []byte(sb.String())
	}
	subs := []string{
		"/doc/section/head/title",
		"//quote/attrib",
		"/doc//p",
		"/doc/section/body",
		"//head/*",
		"/doc/other/miss",
	}
	builder := pmatch.NewBuilder()
	for i, s := range subs {
		builder.Add(xpath.MustParse(s), i)
	}
	auto := builder.Build()
	matched := 0
	visit := func(any) { matched++ }
	modes := []struct {
		name  string
		match func(raw []byte) error
	}{
		{"stream", func(raw []byte) error {
			return stream.Match(raw, auto, stream.WireLimits, visit)
		}},
		{"decompose", func(raw []byte) error {
			doc, err := xmldoc.Parse(raw)
			if err != nil {
				return err
			}
			paths, attrs := doc.AnnotatedSymPaths()
			for i, path := range paths {
				auto.Match(path, attrs[i], visit)
			}
			return nil
		}},
	}

	for _, scale := range []int{1, 10, 100} {
		raw := mkRaw(4 * scale)
		for _, mode := range modes {
			b.Run(fmt.Sprintf("doc=%dx/%s", scale, mode.name), func(b *testing.B) {
				b.SetBytes(int64(len(raw)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := mode.match(raw); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
