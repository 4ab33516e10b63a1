package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The generator is the benchmark's own: it does not use the repository's
// corpus package, so a change to the program cannot change the workload.
// Every generated function comes from a fixed template whose diagnostics are
// known by construction, which gives the oracle its expected answers.

// template is one kind of generated function. Each template renders a fixed
// number of lines whatever its constants, so an edit that changes a constant
// never moves a line. Every template has an editable constant k that may be
// any positive integer without changing the function's diagnostics.
type template struct {
	name string
	// weight is the template's share in the mix.
	weight int
	// diagLine is the 1-based line of the single expected "qual"
	// diagnostic within the function, or 0 for a clean function.
	diagLine int
	// qual names the qualifier the diagnostic reports.
	qual string
	// text is the function source; %[1]s is the function suffix, %[2]d the
	// editable constant, %[3]d the second constant and %[4]d the file id.
	text string
}

var templates = []template{
	{name: "scale", weight: 2, text: `int pos scale_%[1]s(int pos a, int pos b) {
  int pos s = a * b;
  int pos t = s + %[2]d;
  int nonzero d = t;
  int q = b / d;
  int neg n = -t;
  n = n + -%[3]d;
  return t;
}
`},
	{name: "sum", weight: 2, text: `int sum_%[1]s(int a, int b) {
  int acc = %[2]d;
  int i = 0;
  while (i < b) {
    acc = acc + a * %[3]d;
    i = i + 1;
  }
  return acc;
}
`},
	{name: "read", weight: 2, text: `int read_%[1]s(int* nonnull p, int n) {
  int v = *p + %[2]d;
  if (n > 0) {
    v = v + n * %[3]d;
  }
  return v;
}
`},
	// The violating templates each yield exactly one "qual" diagnostic, on
	// their assignment line.
	{name: "vpos", weight: 1, diagLine: 3, qual: "pos", text: `int vpos_%[1]s(int a, int b) {
  int pos x = %[2]d;
  x = a - b * %[3]d;
  return x;
}
`},
	{name: "vnull", weight: 1, diagLine: 3, qual: "nonnull", text: `void vnull_%[1]s(int* p, int n) {
  int v = n + %[2]d;
  g_%[4]d = p;
}
`},
	{name: "vneg", weight: 1, diagLine: 3, qual: "neg", text: `int vneg_%[1]s(int a) {
  int neg y = -%[2]d;
  y = a + %[3]d;
  return y;
}
`},
	{name: "vnz", weight: 1, diagLine: 3, qual: "nonzero", text: `int vnz_%[1]s(int a, int b) {
  int nonzero z = %[2]d;
  z = a - %[3]d;
  return b / z;
}
`},
}

// templateLines is the rendered line count of each template.
var templateLines = func() []int {
	out := make([]int, len(templates))
	for i, t := range templates {
		out[i] = strings.Count(t.text, "\n")
	}
	return out
}()

// genFunc is one generated function: its template and constants.
type genFunc struct {
	kind int
	k    int // the editable constant, always positive
	k2   int
}

// genFile is one generated source file. id names its content: a duplicate
// file carries the id (and so the exact bytes) of the file it copies.
type genFile struct {
	rel   string
	id    int
	funcs []genFunc
}

// wantDiag is one expected diagnostic: a "qual" warning on line, naming qual.
type wantDiag struct {
	line int
	qual string
}

// genTree draws an n-file tree under prefix. Every fifth file duplicates
// the first file of its block byte for byte, so the function cache sees
// cross-file identical content. The seed decides which template goes where
// and every constant; the number of functions per file, the count of each
// template and the byte size do not depend on it, so seeds vary the inputs
// without varying the amount of work.
func genTree(seed int64, n int, prefix string) []genFile {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, n)
	total := 0
	for i := range counts {
		if i%5 != 4 {
			counts[i] = 3 + i%7
			total += counts[i]
		}
	}
	kinds := make([]int, 0, total)
	for len(kinds) < total {
		for t, tmpl := range templates {
			for w := 0; w < tmpl.weight && len(kinds) < total; w++ {
				kinds = append(kinds, t)
			}
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	files := make([]genFile, n)
	for i := range files {
		files[i] = genFile{rel: fmt.Sprintf("%s%02d/src/file%04d.c", prefix, i%10, i), id: i}
		if i%5 == 4 {
			files[i].id = i - 4
			files[i].funcs = files[i-4].funcs
			continue
		}
		for c := 0; c < counts[i]; c++ {
			files[i].funcs = append(files[i].funcs, genFunc{kind: kinds[0], k: 100 + rng.Intn(900), k2: 1 + rng.Intn(9)})
			kinds = kinds[1:]
		}
	}
	return files
}

// render returns the file's source and its expected diagnostics.
func (f *genFile) render() (string, []wantDiag) {
	var b strings.Builder
	fmt.Fprintf(&b, "/* perfbench file %d */\nint* nonnull g_%d;\n\n", f.id, f.id)
	line := 4
	var want []wantDiag
	for i, fn := range f.funcs {
		t := templates[fn.kind]
		fmt.Fprintf(&b, t.text, fmt.Sprintf("%d_%d", f.id, i), fn.k, fn.k2, f.id)
		b.WriteByte('\n')
		if t.diagLine > 0 {
			want = append(want, wantDiag{line: line + t.diagLine - 1, qual: t.qual})
		}
		line += templateLines[fn.kind] + 1
	}
	return b.String(), want
}

// edited returns a copy of f with function j's editable constant set to k.
// The copy renders the same lines and expects the same diagnostics.
func (f *genFile) edited(j, k int) genFile {
	g := *f
	g.funcs = append([]genFunc(nil), f.funcs...)
	g.funcs[j].k = k
	return g
}

// corpus is a rendered set of files with the oracle's expected answers.
type corpus struct {
	files []genFile
	srcs  []string
	want  [][]wantDiag
	funcs int
	bytes int
}

func newCorpus(files []genFile) *corpus {
	c := &corpus{files: files, srcs: make([]string, len(files)), want: make([][]wantDiag, len(files))}
	for i := range files {
		c.srcs[i], c.want[i] = files[i].render()
		c.funcs += len(files[i].funcs)
		c.bytes += len(c.srcs[i])
	}
	return c
}

// digest is a hex sha256 over every file's path and contents.
func (c *corpus) digest() string {
	h := sha256.New()
	for i, f := range c.files {
		fmt.Fprintf(h, "%s\x00%d\x00", f.rel, len(c.srcs[i]))
		h.Write([]byte(c.srcs[i]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// write materialises the corpus under root.
func (c *corpus) write(root string) error {
	for i, f := range c.files {
		if err := writeSource(root, f.rel, c.srcs[i]); err != nil {
			return err
		}
	}
	return nil
}

func writeSource(root, rel, src string) error {
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(src), 0o644)
}

// sourcesDigest is a hex sha256 over a set of named sources in name order.
func sourcesDigest(srcs map[string]string) string {
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s\x00%d\x00%s", n, len(srcs[n]), srcs[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}
