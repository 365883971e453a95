package gtfock_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/format"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestStructure holds the structural decisions DESIGN records on the
// parsed source tree. Each row checks one invariant; each of its plants is
// a violation overlaid on the tree in memory that the row must report, so
// a row that stops biting fails too. A deleted mechanism stays deleted by
// a row here, with a plant.
func TestStructure(t *testing.T) {
	tr := loadTree(t)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(tr) {
				t.Errorf("%s: %s", r.rule, v)
			}
			for i, p := range r.plants {
				t.Run(fmt.Sprintf("plant%d", i), func(t *testing.T) {
					if len(r.check(tr.with(t, p))) == 0 {
						t.Errorf("%s: not reported: %s in %s", r.rule, p.src, p.path)
					}
				})
			}
		})
	}
}

// fset positions every loaded and planted file.
var fset = token.NewFileSet()

type srcFile struct {
	path  string // slash-separated, relative to the module root
	match bool   // its build constraints hold (go/build.Default.MatchFile)
	fmtOK bool   // format.Source leaves it unchanged
	src   []byte
	ast   *ast.File // nil for a document
	nodes []node    // every node, in ast.Inspect order
}

// docs are the documents loaded beside the Go files, for the rows that
// check what they cite.
var docs = []string{"DESIGN.md", "README.md"}

// node is an AST node and the declaration enclosing it: "pkg.F" and
// "pkg.(*T).M" for functions, "pkg.T" for types, "" otherwise.
type node struct {
	decl string
	n    ast.Node
}

func newFile(p string, src []byte) (*srcFile, error) {
	if !strings.HasSuffix(p, ".go") {
		return &srcFile{path: p, fmtOK: true, src: src}, nil
	}
	f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.OpenFile = func(string) (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(src)), nil }
	match, err := ctx.MatchFile(path.Dir(p), path.Base(p))
	if err != nil {
		return nil, err
	}
	out, err := format.Source(src)
	sf := &srcFile{path: p, match: match, fmtOK: err == nil && bytes.Equal(out, src), src: src, ast: f}
	// The one AST walk: every helper below reads its flat list.
	inspect := func(n ast.Node, decl string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if n != nil {
				sf.nodes = append(sf.nodes, node{decl, n})
			}
			return true
		})
	}
	pkg := f.Name.Name
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			inspect(d, pkg+"."+recvPrefix(d)+d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				decl := ""
				if ts, ok := s.(*ast.TypeSpec); ok {
					decl = pkg + "." + ts.Name.Name
				}
				inspect(s, decl)
			}
		}
	}
	return sf, nil
}

// recvPrefix returns "(*T)." or "T." for a method, "" for a function.
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return ""
	}
	if st, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
		return "(*" + types.ExprString(st.X) + ")."
	}
	return types.ExprString(fd.Recv.List[0].Type) + "."
}

// loadTree parses the module once, skipping dot-directories (a benchmark
// worktree lives under .bench_build/) and testdata, and reads the docs.
func loadTree(t *testing.T) files {
	var tr files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") && !slices.Contains(docs, p) {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := newFile(filepath.ToSlash(p), src)
		if err != nil {
			return err
		}
		tr = append(tr, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// plant is a violation overlaid on the tree: src is appended to the file
// at path if the tree has one, and is a new file otherwise.
type plant struct{ path, src string }

// with returns the tree with p overlaid; only the planted file is parsed
// and formatted again.
func (tr files) with(t *testing.T, p plant) files {
	out, src := append(files(nil), tr...), p.src
	i := slices.IndexFunc(out, func(f *srcFile) bool { return f.path == p.path })
	if i < 0 {
		i, out = len(out), append(out, nil)
	} else {
		src = string(out[i].src) + "\n" + src
	}
	f, err := newFile(p.path, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	out[i] = f
	return out
}

// files is a tree, or part of one.
type files []*srcFile

// code keeps the non-test files.
func (fs files) code() files {
	return fs.filter(func(f *srcFile) bool { return !strings.HasSuffix(f.path, "_test.go") })
}

func (fs files) filter(keep func(*srcFile) bool) files {
	var out files
	for _, f := range fs {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}

// within reports whether file p is one of roots or lies under one; "."
// is the module root's own package.
func within(p string, roots ...string) bool {
	for _, r := range roots {
		if p == r || strings.HasPrefix(p, r+"/") || r == "." && path.Dir(p) == "." {
			return true
		}
	}
	return false
}

// under keeps the files in or under roots (directories or files).
func (fs files) under(roots ...string) files {
	return fs.filter(func(f *srcFile) bool { return within(f.path, roots...) })
}

// except drops the files in or under roots.
func (fs files) except(roots ...string) files {
	return fs.filter(func(f *srcFile) bool { return !within(f.path, roots...) })
}

// site is one match: its place, its enclosing declaration, and what
// matched.
type site struct {
	path       string
	line       int
	decl, what string
}

func (s site) String() string { return fmt.Sprintf("%s:%d: %s in %s", s.path, s.line, s.what, s.decl) }

// find returns a site for each node match names; "" is no match.
func (fs files) find(match func(n node) string) []site {
	var out []site
	for _, f := range fs {
		for _, n := range f.nodes {
			if what := match(n); what != "" {
				out = append(out, site{f.path, fset.Position(n.n.Pos()).Line, n.decl, what})
			}
		}
	}
	return out
}

// glob matches s against pat, where a trailing * matches any suffix.
func glob(pat, s string) bool {
	if pre, ok := strings.CutSuffix(pat, "*"); ok {
		return strings.HasPrefix(s, pre)
	}
	return pat == s
}

// named returns the first form that names n: "x" the identifier x, ".x"
// any selector .x, "p.x" the selector p.x; x may end in *. Whole names
// match, never substrings.
func named(n ast.Node, forms ...string) string {
	for _, form := range forms {
		p, x, dotted := strings.Cut(form, ".")
		switch n := n.(type) {
		case *ast.Ident:
			if !dotted && glob(form, n.Name) {
				return form
			}
		case *ast.SelectorExpr:
			id, isID := n.X.(*ast.Ident)
			if dotted && glob(x, n.Sel.Name) && (p == "" || isID && id.Name == p) {
				return form
			}
		}
	}
	return ""
}

// uses returns the identifiers and selectors any of forms names.
func (fs files) uses(forms ...string) []site {
	return fs.find(func(n node) string { return named(n.n, forms...) })
}

// calls returns the calls of any of forms; "f" matches f(…) and x.f(…).
func (fs files) calls(forms ...string) []site {
	return fs.find(func(n node) string {
		c, ok := n.n.(*ast.CallExpr)
		if !ok {
			return ""
		}
		if sel, ok := c.Fun.(*ast.SelectorExpr); ok && named(c.Fun, forms...) == "" {
			return named(sel.Sel, forms...)
		}
		return named(c.Fun, forms...)
	})
}

// funcs returns the function and method declarations any of forms names.
func (fs files) funcs(forms ...string) []site {
	return fs.find(func(n node) string {
		if fd, ok := n.n.(*ast.FuncDecl); ok {
			return named(fd.Name, forms...)
		}
		return ""
	})
}

// fields returns the structs declared in a declaration typ matches
// ("pkg.T"; "*" for every struct) that have a field any of forms names,
// whatever the field's type.
func (fs files) fields(typ string, forms ...string) []site {
	return fs.find(func(n node) string {
		if st, ok := n.n.(*ast.StructType); ok && glob(typ, n.decl) {
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if named(id, forms...) != "" {
						return id.Name
					}
				}
			}
		}
		return ""
	})
}

// flags returns the command-line flags a form names ("-" omitted) that
// the files define through the flag package: flag.T("name", …) or
// flag.TVar(&v, "name", …).
func (fs files) flags(forms ...string) []site {
	return fs.find(func(n node) string {
		c, ok := n.n.(*ast.CallExpr)
		if !ok || named(c.Fun, "flag.*") == "" {
			return ""
		}
		for _, a := range c.Args[:min(2, len(c.Args))] {
			if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				return named(ast.NewIdent(strings.Trim(lit.Value, "`\"")), forms...)
			}
		}
		return ""
	})
}

// imports returns the imports whose path starts with any of prefixes.
func (fs files) imports(prefixes ...string) []site {
	return fs.find(func(n node) string {
		if is, ok := n.n.(*ast.ImportSpec); ok {
			for _, p := range prefixes {
				if ip := strings.Trim(is.Path.Value, `"`); strings.HasPrefix(ip, p) {
					return ip
				}
			}
		}
		return ""
	})
}

// printed returns the assignments and binary expressions that print as
// one of texts, so that layout cannot hide one.
func (fs files) printed(texts ...string) []site {
	return fs.find(func(n node) string {
		switch n.n.(type) {
		case *ast.AssignStmt, *ast.BinaryExpr:
			// An empty file set drops every position: line breaks print alike.
			var b strings.Builder
			printer.Fprint(&b, token.NewFileSet(), n.n)
			for _, text := range texts {
				if b.String() == text {
					return text
				}
			}
		}
		return ""
	})
}

// fockUpdates returns one site for each declaration holding at least n
// compound += or -= assignments into an indexed or a pointed-to element,
// whatever the right side reads: f[ij] += 4 v D_kl, *p += 4 v dij with
// D_ij hoisted, and *elem(f, ij) -= v D_jl count alike.
func (fs files) fockUpdates(n int) []site {
	sites := fs.find(func(nd node) string {
		a, ok := nd.n.(*ast.AssignStmt)
		if !ok || a.Tok != token.ADD_ASSIGN && a.Tok != token.SUB_ASSIGN || len(a.Lhs) != 1 {
			return ""
		}
		switch a.Lhs[0].(type) {
		case *ast.IndexExpr, *ast.StarExpr:
			return "element update"
		}
		return ""
	})
	count := map[string]int{}
	for _, s := range sites {
		count[s.path+" "+s.decl]++
	}
	var out []site
	for _, s := range sites {
		if k := s.path + " " + s.decl; count[k] >= n {
			s.what = fmt.Sprintf("%d element updates", count[k])
			out = append(out, s)
			count[k] = 0 // one site per declaration
		}
	}
	return out
}

// funcTypes returns the function types, declared or literal, whose
// parameter types print as params ("int32, int32, []float64").
func (fs files) funcTypes(params string) []site {
	return fs.find(func(n node) string {
		ft, ok := n.n.(*ast.FuncType)
		if !ok || ft.Params == nil {
			return ""
		}
		var ts []string
		for _, f := range ft.Params.List {
			for range max(1, len(f.Names)) {
				ts = append(ts, types.ExprString(f.Type))
			}
		}
		if strings.Join(ts, ", ") != params {
			return ""
		}
		return "func(" + params + ")"
	})
}

// literals returns the string literals that contain any of subs.
func (fs files) literals(subs ...string) []site {
	return fs.find(func(n node) string {
		if lit, ok := n.n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			for _, sub := range subs {
				if strings.Contains(lit.Value, sub) {
					return sub
				}
			}
		}
		return ""
	})
}

// docRef is a code span that opens with pkg.Name, Name exported.
var docRef = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)`)

// docRefs returns the code spans of the documents at paths that open with
// `pkg.Name` of a module package (by its package name, not its directory:
// `netga.Session`) that declares no such Name at top level. Fenced blocks
// are skipped; other packages' names, such as the standard library's
// `errors.Is`, are not module packages.
func (tr files) docRefs(paths ...string) []string {
	pkgs, decls := map[string]bool{}, map[string]bool{}
	for _, f := range tr.filter(func(f *srcFile) bool { return f.ast != nil }) {
		pkg := f.ast.Name.Name
		if pkg == "main" || strings.HasSuffix(pkg, "_test") {
			continue
		}
		pkgs[pkg] = true
		for _, name := range topLevel(f.ast) {
			decls[pkg+"."+name] = true
		}
	}
	var out []string
	for _, f := range tr.under(paths...) {
		var text strings.Builder
		fenced := false
		for _, l := range strings.SplitAfter(string(f.src), "\n") {
			fence := strings.HasPrefix(strings.TrimSpace(l), "```")
			fenced = fenced != fence
			if fence || fenced {
				l = "\n" // keep the line count
			}
			text.WriteString(l)
		}
		line := 1
		for i, span := range strings.Split(text.String(), "`") {
			if m := docRef.FindStringSubmatch(span); i%2 == 1 && m != nil && pkgs[m[1]] && !decls[m[0]] {
				out = append(out, fmt.Sprintf("%s:%d: `%s` names no declaration", f.path, line, m[0]))
			}
			line += strings.Count(span, "\n")
		}
	}
	return out
}

// topLevel returns the names a file declares at package level: its
// functions (not methods), types, variables and constants.
func topLevel(f *ast.File) []string {
	var names []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					names = append(names, sp.Name.Name)
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	return names
}

// pkgs returns the package directories of the files, sorted.
func (fs files) pkgs() []string {
	var out []string
	for _, f := range fs {
		out = append(out, path.Dir(f.path))
	}
	return distinct(out)
}

// unreached returns the pkgs outside the non-test import closure of the
// packages in or under roots, counting only the files whose build
// constraints hold, as go list does.
func (tr files) unreached(pkgs []string, roots ...string) []string {
	seen := map[string]bool{}
	for _, f := range tr.code().under(roots...) {
		seen[path.Dir(f.path)] = true
	}
	for grew := true; grew; {
		grew = false
		for _, f := range tr.code().filter(func(f *srcFile) bool { return f.match && seen[path.Dir(f.path)] }) {
			for _, is := range f.ast.Imports {
				if ip, ok := strings.CutPrefix(strings.Trim(is.Path.Value, `"`), "gtfock/"); ok && !seen[ip] {
					seen[ip], grew = true, true
				}
			}
		}
	}
	var out []string
	for _, p := range pkgs {
		if !seen[p] {
			out = append(out, p)
		}
	}
	return out
}

// decls returns the distinct declarations enclosing the sites, sorted.
func decls(sites []site) []string {
	var out []string
	for _, s := range sites {
		out = append(out, s.decl)
	}
	return distinct(out)
}

func distinct(s []string) []string {
	slices.Sort(s)
	return slices.Compact(s)
}

// atMost reports the sites unless there are at most n, each in one of
// where (a path or a declaration; none means anywhere).
func atMost(n int, sites []site, where ...string) []string {
	var out []string
	for _, s := range sites {
		ok := len(where) == 0
		for _, w := range where {
			ok = ok || w == s.path || w == s.decl
		}
		if !ok || len(sites) > n {
			out = append(out, s.String())
		}
	}
	return out
}

// one reports unless there is exactly one site, in one of where.
func one(sites []site, where ...string) []string {
	if len(sites) == 0 {
		return []string{"none found, want one"}
	}
	return atMost(1, sites, where...)
}

// none reports every site.
func none(sites []site) []string { return atMost(0, sites) }

// same reports unless got equals want (both sorted).
func same(got []string, want ...string) []string {
	if strings.Join(got, " ") != strings.Join(want, " ") {
		return []string{fmt.Sprintf("got %q, want %q", got, want)}
	}
	return nil
}

// row is one structural invariant: rule in DESIGN's words, its check on
// a tree, and the violations it must report.
type row struct {
	name, rule string
	check      func(tr files) []string
	plants     []plant
}

var rows = []row{
	{"gofmt", "every Go file is gofmt-clean (gofmt -w <file> fixes a hit)", func(tr files) []string {
		var out []string
		for _, f := range tr.filter(func(f *srcFile) bool { return !f.fmtOK }) {
			out = append(out, f.path)
		}
		return out
	}, []plant{{"internal/serve/plant.go", "package serve\nvar  x=1\n"}}},

	// One durability implementation (DESIGN §9): internal/wal.
	{"wal-checksum", "outside internal/wal nothing checksums a frame", func(tr files) []string {
		return none(tr.code().under("internal", "cmd").except("internal/wal").imports("hash/crc32"))
	}, []plant{{"internal/serve/plant.go", `package serve; import "hash/crc32"; var _ = crc32.ChecksumIEEE`}}},
	{"wal-fsync", "outside internal/wal nothing fsyncs", func(tr files) []string {
		return none(tr.code().under("internal", "cmd").except("internal/wal").calls("Sync"))
	}, []plant{{"cmd/hfd/plant.go", `package main; import "os"; func plant(f *os.File) { f.Sync() }`}}},
	{"wal-rename", "outside internal/wal nothing renames a file into place but the SCF checkpoint's one .prev rotation",
		func(tr files) []string {
			return atMost(1, tr.code().under("internal", "cmd").except("internal/wal").calls("os.Rename"), "internal/scf/checkpoint.go")
		}, []plant{
			{"internal/serve/plant.go", `package serve; import "os"; func plant() { os.Rename("a", "b") }`},
			{"internal/scf/checkpoint.go", `func plant() { os.Rename("a", "b") }`},
		}},

	// One service composition (DESIGN §12–13): every hfd is a registry
	// peer, and the registry keeps no checkpoint pointer.
	{"hfd-one-composition", "cmd/hfd has one start path: it runs one serve.Peer and never a bare serve.NewServer", func(tr files) []string {
		hfd := tr.code().under("cmd/hfd")
		return append(one(hfd.calls("serve.NewPeer")), none(hfd.calls("serve.NewServer"))...)
	}, []plant{
		{"cmd/hfd/plant.go", `package main; import "gtfock/internal/serve"; func plant() { serve.NewServer(serve.Config{}) }`},
		{"cmd/hfd/plant.go", `package main; import "gtfock/internal/serve"; func plant() { serve.NewPeer(serve.PeerConfig{}) }`},
	}},
	{"serve-api-peer", "serve.API never branches on a missing Peer", func(tr files) []string {
		return none(tr.code().under("internal/serve").find(func(n node) string {
			if b, ok := n.n.(*ast.BinaryExpr); ok && strings.HasPrefix(n.decl, "serve.(*API).") {
				if named(b.X, ".Peer") != "" && named(b.Y, "nil") != "" || named(b.Y, ".Peer") != "" && named(b.X, "nil") != "" {
					return types.ExprString(b)
				}
			}
			return ""
		}))
	}, []plant{
		{"internal/serve/http.go", `func (api *API) plant() bool { return nil != api.Peer }`},
	}},
	{"serve-ckpt-pointer", "the registry's write-only checkpoint pointer stays gone: no UpdateCkpt, CkptIter, OnCheckpoint or /reg/v1/update", func(tr files) []string {
		fs := tr.under("cmd", "internal")
		return none(append(fs.uses("UpdateCkpt", "CkptIter", "OnCheckpoint", "onCheckpoint"), fs.literals("/reg/v1/update")...))
	}, []plant{
		{"internal/serve/plant.go", `package serve; func (r *Registry) UpdateCkpt() {}`},
		{"internal/serve/plant_test.go", `package serve; type plantRecord struct{ CkptIter int }`},
		{"cmd/hfd/plant.go", `package main; var plant struct{ OnCheckpoint func() }`},
		{"internal/serve/registry_http.go", `const plantRoute = "POST /reg/v1/update"`},
	}},
	{"serve-one-copy", "a peer's scheduler copies nothing the registry or the scheduler holds: no finishedJob or condense, no map of cancel functions on serve.Peer, no serve.Config.OnTerminal", func(tr files) []string {
		fs := tr.under("internal/serve")
		out := fs.find(func(n node) string {
			switch d := n.n.(type) {
			case *ast.TypeSpec:
				return named(d.Name, "finishedJob", "condense")
			case *ast.FuncDecl:
				return named(d.Name, "finishedJob", "condense")
			case *ast.StructType:
				for _, fl := range d.Fields.List {
					if m, ok := fl.Type.(*ast.MapType); ok && n.decl == "serve.Peer" && named(m.Value, "context.CancelCauseFunc") != "" {
						return types.ExprString(m)
					}
				}
			}
			return ""
		})
		return none(append(out, fs.fields("serve.Config", "OnTerminal")...))
	}, []plant{
		{"internal/serve/plant.go", `package serve; type finishedJob struct{ st Status }`},
		{"internal/serve/job.go", `func (j *Job) condense() {}`},
		{"internal/serve/plant.go", `package serve; import "context"; type Peer struct{ stops map[string]context.CancelCauseFunc }`},
		{"internal/serve/plant.go", `package serve; type Config struct{ OnTerminal func(*Job) error }`},
	}},

	// The documents cite what exists.
	{"doc-refs", "every backticked pkg.Name in DESIGN.md and README.md of a module package names one of its declarations", func(tr files) []string {
		return tr.docRefs(docs...)
	}, []plant{{"DESIGN.md", "A line citing `core.NoSuchName`."}}},

	// One transport contract (DESIGN §7).
	{"backend-retry", "no type grows a retrying, fenced or error-twin one-sided method", func(tr files) []string {
		return none(tr.code().under("internal", "cmd").funcs("GetRetry", "AccFencedRetry", "AccFenced", "Fallible", "SetFence", "LoadMatrixErr", "ToMatrixErr"))
	}, []plant{{"internal/dist/plant.go", `package dist; func (g *GlobalArray) GetRetry() {}`}}},
	{"backend-backoff", "the network client sleeps a backoff only in its driver-op loop", func(tr files) []string {
		return one(tr.code().under("internal/net").calls("SleepBackoff"), "netga.(*Client).driverOp")
	}, []plant{
		{"internal/net/client.go", `func (c *Client) plant() { dist.SleepBackoff(nil, 0) }`},
		{"internal/net/plant.go", `package netga; import "gtfock/internal/dist"; func plant() { dist.SleepBackoff(nil, 0) }`},
	}},
	{"backend-membership", "the static membership map the fleet view superseded stays gone", func(tr files) []string {
		return none(tr.under("internal", "cmd").uses("WithMembership", "SetMembership", "lookupStandby"))
	}, []plant{{"internal/net/plant_test.go", `package netga; func lookupStandby() {}`}}},

	// One promoter (DESIGN §9): the fleet's lease detector fails over hot
	// standbys, and clients never do.
	{"one-promoter", "outside the server that answers it and its tests, opPromote is sent only by Fleet.promoteMember; client failover (Failover, failoverAfter, errFailoverInFlight, Failovers, -net-standbys) stays gone", func(tr files) []string {
		net := tr.code().under("internal/net").except("internal/net/server.go", "internal/net/proto.go")
		fs := tr.under("cmd", "internal")
		return append(same(decls(net.uses("opPromote")), "netga.(*Fleet).promoteMember"),
			none(append(fs.uses("Failover", "failoverAfter", "errFailoverInFlight", "Failovers"), fs.literals("net-standbys")...))...)
	}, []plant{
		{"internal/net/router.go", `func (rt *Router) plant(addr string) { oneShotRPC(addr, &request{Op: opPromote}, 0) }`},
		{"internal/net/plant.go", `package netga; func (rt *Router) Failover(slot int) error { return nil }`},
		{"internal/net/plant_test.go", `package netga; const failoverAfter = 3`},
		{"internal/net/client.go", `func (c *Client) plant() { _ = errFailoverInFlight }`},
		{"internal/dist/stats.go", `type plantStats struct{ Failovers int64 }`},
		{"cmd/fockbuild/plant.go", `package main; import "flag"; var _ = flag.String("net-standbys", "", "standby addresses")`},
	}},

	// One shard server (DESIGN §7): the pinned and the admitting session
	// table (NewServer, NewMultiServer) share all four loops.
	{"server-accept", "internal/net has one accept loop", func(tr files) []string {
		return one(tr.code().under("internal/net").calls("Accept"))
	}, []plant{{"internal/net/plant.go", `package netga; import "net"; func plant(ln net.Listener) { ln.Accept() }`}}},
	{"server-conn", "internal/net has one per-conn serve loop", func(tr files) []string {
		return one(tr.code().under("internal/net").funcs("serveConn"))
	}, []plant{{"internal/net/plant.go", `package netga; func (s *Server) serveConn() {}`}}},
	{"server-hello", "internal/net has one hello", func(tr files) []string {
		return one(tr.code().under("internal/net").funcs("hello"))
	}, []plant{{"internal/net/plant.go", `package netga; func (f *Fleet) hello() {}`}}},
	{"server-acc", "internal/net has one accumulate loop", func(tr files) []string {
		return one(tr.code().under("internal/net").printed("dst[i] += req.Alpha * row[i]"))
	}, []plant{{"internal/net/plant.go", "package netga\nfunc plant(dst, row []float64, req request) {\n\tfor i := range dst {\n\t\tdst[i]+=req.Alpha*\n\t\t\trow[i]\n\t}\n}"}}},
	{"server-hgp", "the second production ERI algorithm stays gone", func(tr files) []string {
		return none(tr.under("internal", "cmd").uses("UseHGP", "eriCartHGP"))
	}, []plant{{"internal/integrals/plant.go", `package integrals; var UseHGP bool`}}},

	// One net session (DESIGN §7). benchmark/scf.go still dials D and F
	// by hand (ROADMAP item 13(b)), so this row stays in cmd and internal.
	{"session-pair", "outside internal/net nobody assembles a D/F client pair: netga.Session is the one place", func(tr files) []string {
		return none(tr.code().under("cmd", "internal").except("internal/net").uses("Array"))
	}, []plant{{"cmd/hf/plant.go", `package main; import netga "gtfock/internal/net"; var _ = netga.Config{Array: 1}`}}},
	{"session-factories", "the hand-rolled backend factories and the in-core SCF engine stay gone", func(tr files) []string {
		return none(tr.under("cmd", "internal").uses("persistentBackend", "netFactory", "fleetFactory", "EngineInCore"))
	}, []plant{{"internal/scf/plant.go", `package scf; const EngineInCore = 2`}}},
	{"session-grid", "the drivers share dist.ParseGrid", func(tr files) []string {
		return none(tr.code().under("cmd").funcs("parseGrid"))
	}, []plant{{"cmd/fockbuild/plant.go", `package main; func parseGrid(s string) {}`}}},

	// One worker runtime (DESIGN §5): every build runs leased.
	{"core-ledger", "no internal/core code branches on whether a ledger exists or keeps the fence beside it", func(tr files) []string {
		core := tr.code().under("internal/core")
		return none(append(core.printed("led == nil", "led != nil"), core.uses(".fence")...))
	}, []plant{
		{"internal/core/plant.go", `package core; func plant(led *ledger) { if led != nil { return } }`},
		{"internal/core/plant.go", `package core; func plant(w *worker) { _ = w.fence }`},
	}},
	{"core-lease-options", "the two test-only lease options stay gone", func(tr files) []string {
		return none(tr.code().under("internal/core").uses("MonitorEvery", "MaxFaultRounds"))
	}, []plant{{"internal/core/plant.go", `package core; type plantOptions struct{ MonitorEvery int }`}}},
	{"core-walk-rows", "a footprint is walked in one place: Footprint.Patches makes internal/core's one Rows() call", func(tr files) []string {
		return one(tr.code().under("internal/core").calls("Rows"), "core.(*Footprint).Patches")
	}, []plant{{"internal/core/real.go", `func (w *worker) resetAccum(fp *Footprint) { _ = fp.Rows() }`}}},
	{"core-walk-patches", "Footprint.Patches makes internal/core's one Grid2D.Patches call", func(tr files) []string {
		gridPatches := tr.code().under("internal/core").find(func(n node) string { // Grid2D.Patches(r0, r1, c0, c1); Footprint.Patches takes two
			if c, ok := n.n.(*ast.CallExpr); ok && len(c.Args) == 4 && named(c.Fun, ".Patches") != "" {
				return "Grid2D.Patches"
			}
			return ""
		})
		return one(gridPatches, "core.(*Footprint).Patches")
	}, []plant{{"internal/core/real.go", `func (w *worker) plant(r0, r1, c0, c1 int) { _ = w.grid.Patches(r0, r1, c0, c1) }`}}},
	{"core-transfers", "the simulator's per-row-shell Footprint.Transfers stays gone: it charges Footprint.Patches", func(tr files) []string {
		return none(tr.code().under("internal/core").funcs("Transfers"))
	}, []plant{{"internal/core/sim.go", `func (f *Footprint) Transfers(bs *basis.Set, grid *dist.Grid2D) (calls, bytes int64) { return }`}}},
	// One Algorithm 4 in both clocks (DESIGN §1 row 9): the simulator
	// drives real queues through Build's victim scan and block intake.
	{"one-algorithm-4", "internal/core has one row-wise victim scan (stealScan) and one block intake (Footprint.Intake), each called by the real build and the simulator alone; a queue is stolen from only by the ledger and inside the scan, and a block joins a footprint only in the intake", func(tr files) []string {
		core := tr.code().under("internal/core")
		rowWise := core.find(func(n node) string {
			if b, ok := n.n.(*ast.BinaryExpr); ok && b.Op == token.REM && named(b.Y, "prow", ".Prow") != "" {
				return "row-wise victim order " + types.ExprString(b)
			}
			return ""
		})
		var scans []ast.Node // the function literals handed to stealScan
		steals := core.find(func(n node) string {
			c, ok := n.n.(*ast.CallExpr)
			if !ok {
				return ""
			}
			if named(c.Fun, "stealScan") != "" {
				for _, a := range c.Args {
					if fl, ok := a.(*ast.FuncLit); ok {
						scans = append(scans, fl)
					}
				}
			}
			if named(c.Fun, ".Steal") == "" || n.decl == "core.(*ledger).steal" {
				return ""
			}
			for _, s := range scans { // ast.Inspect visits a call before its arguments
				if s.Pos() <= c.Pos() && c.End() <= s.End() {
					return ""
				}
			}
			return "Queue.Steal outside the victim scan"
		})
		merges := core.find(func(n node) string { // Footprint.AddBlock(scr, b); Queue.AddBlock takes one
			if c, ok := n.n.(*ast.CallExpr); ok && len(c.Args) == 2 && named(c.Fun, ".AddBlock") != "" {
				return "Footprint.AddBlock"
			}
			return ""
		})
		out := append(one(rowWise, "core.stealScan"), none(steals)...)
		out = append(out, one(merges, "core.(*Footprint).Intake")...)
		out = append(out, same(decls(core.calls("stealScan")), "core.(*worker).steal", "core.SimulateOptions")...)
		return append(out, same(decls(core.calls("Intake")), "core.(*worker).addWork", "core.SimulateOptions")...)
	}, []plant{
		{"internal/core/real.go", `func (w *worker) plant(queues []*Queue) (TaskBlock, bool) {
	for r := range w.grid.Prow {
		row := (w.rank/w.grid.Pcol + r) % w.grid.Prow
		for c := range w.grid.Pcol {
			if v := w.grid.ProcID(row, c); v != w.rank {
				if b, ok := w.led.steal(v, w.rank, w.epoch, queues[v]); ok {
					return b, true
				}
			}
		}
	}
	return TaskBlock{}, false
}`},
		{"internal/core/sim.go", `func plant(queues []*Queue, v int) (TaskBlock, bool) { return queues[v].Steal() }`},
		{"internal/core/sim.go", `func plant(p *simProc, scr *screen.Screening, b TaskBlock) { p.fp.AddBlock(scr, b) }`},
		{"internal/core/sim.go", `func plant(p *simProc, bs *basis.Set, scr *screen.Screening, b TaskBlock) { p.fp.Intake(bs, scr, nil, b) }`},
	}},
	{"one-algorithm-2", "internal/nwchem has one task walk (AtomData.TaskBlocks), called by the real build's execTask and the simulator alone; only it and the task stream screen atom pairs, no map is keyed by an atom block, and the simulator holds no func literal", func(tr files) []string {
		nw := tr.code().under("internal/nwchem")
		blockMaps := nw.find(func(n node) string {
			if m, ok := n.n.(*ast.MapType); ok {
				if _, ok := m.Key.(*ast.ArrayType); ok {
					return "map keyed by " + types.ExprString(m.Key)
				}
			}
			return ""
		})
		closures := nw.under("internal/nwchem/sim.go").find(func(n node) string {
			if _, ok := n.n.(*ast.FuncLit); ok {
				return "func literal"
			}
			return ""
		})
		out := append(none(blockMaps), none(closures)...)
		out = append(out, same(decls(nw.calls("Sig")), "nwchem.(*AtomData).TaskBlocks", "nwchem.(*TaskStream).Next", "nwchem.(*TaskStream).blockHasWork")...)
		return append(out, same(decls(nw.calls("TaskBlocks")), "nwchem.(*baseWorker).execTask", "nwchem.Simulate")...)
	}, []plant{
		{"internal/nwchem/real.go", `func (w *baseWorker) plant(ls []int) map[[2]int]bool {
	blocks := map[[2]int]bool{}
	for _, l := range ls {
		blocks[[2]int{w.rank, l}] = true
	}
	return blocks
}`},
		{"internal/nwchem/sim.go", `func plant(blocks *[18][2]int, n *int) func(i, j int) {
	return func(i, j int) {
		for b := 0; b < *n; b++ {
			if blocks[b] == [2]int{i, j} {
				return
			}
		}
		blocks[*n] = [2]int{i, j}
		*n++
	}
}`},
		{"internal/nwchem/sim.go", `func plant(ad *AtomData, td TaskDesc) (n int) {
	for l := td.Lo; l <= td.Lhi; l++ {
		if ad.Sig(td.K, l) {
			n++
		}
	}
	return n
}`},
		{"internal/nwchem/real.go", `func (w *baseWorker) plant(td TaskDesc) { w.ls, w.blocks = w.ad.TaskBlocks(td, nil, nil) }`},
	}},
	{"row-steals", "Queue.Steal takes whole rows, the paper's policy: inside it nothing assigns a block's C0 or C1, and every stolen TaskBlock keeps its source block's C0 and C1", func(tr files) []string {
		return none(tr.code().under("internal/core").find(func(n node) string {
			if n.decl != "core.(*Queue).Steal" {
				return ""
			}
			var lhs []ast.Expr
			switch n := n.n.(type) {
			case *ast.AssignStmt:
				lhs = n.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{n.X}
			case *ast.KeyValueExpr:
				if k := named(n.Key, "C0", "C1"); k != "" && named(n.Value, "."+k) == "" {
					return "a stolen block's " + k + " = " + types.ExprString(n.Value)
				}
			}
			for _, x := range lhs {
				if named(x, ".C0", ".C1") != "" {
					return "assigns " + types.ExprString(x)
				}
			}
			return ""
		}))
	}, []plant{
		{"internal/core/task.go", `func (q *Queue) Steal() (TaskBlock, bool) {
	b := &q.blocks[0]
	if avail := b.C1 - q.cur.N; avail >= 2 {
		take := avail / 2
		stolen := TaskBlock{R0: b.R0, R1: b.R1, C0: b.C1 - take, C1: b.C1}
		b.C1 -= take
		return stolen, true
	}
	return TaskBlock{}, false
}`},
		{"internal/core/task.go", `func (q *Queue) Steal() (TaskBlock, bool) { b := q.blocks[0]; return TaskBlock{R0: b.R0, R1: b.R1, C0: b.C0 + 1, C1: b.C1}, true }`},
		{"internal/core/task.go", `func (q *Queue) Steal() (TaskBlock, bool) { q.blocks[0].C1--; return TaskBlock{}, false }`},
	}},
	{"core-gomaxprocs", "lanes have no knob: internal/core reads GOMAXPROCS in one place", func(tr files) []string {
		return one(tr.code().under("internal/core").calls("GOMAXPROCS"))
	}, []plant{{"internal/core/plant.go", `package core; import "runtime"; var lanes = runtime.GOMAXPROCS(0)`}}},
	{"core-threads", "neither Options struct (core's, scf's) grows a thread count", func(tr files) []string {
		knobs := []string{"Threads", "NumThreads", "Lanes", "NumLanes", "Workers", "NumWorkers"}
		opts := tr.code().under("internal/core", "internal/scf")
		return none(append(opts.fields("core.Options", knobs...), opts.fields("scf.Options", knobs...)...))
	}, []plant{{"internal/scf/plant.go", `package scf; type Options struct{ Lanes int }`}}},
	{"core-fast-kernels", "the general-kernel switch is set only in internal/integrals (its tests' oracle)", func(tr files) []string {
		return none(tr.code().under("internal", "cmd").except("internal/integrals").uses("DisableFastKernels"))
	}, []plant{{"cmd/fockbuild/plant.go", `package main; import "gtfock/internal/integrals"; func plant(e *integrals.Engine) { e.DisableFastKernels = true }`}}},

	// One contraction (DESIGN §11 "Store format"): computed and replayed
	// tasks, and the NWChem baseline's quartets, meet F in one loop nest.
	{"one-contraction", "outside tests and the generated kernels exactly one function (core.contract) folds integrals into F from D, and the per-quartet replay callback stays gone in internal/core and internal/integrals", func(tr files) []string {
		bodies := tr.code().except("internal/integrals/kernels_gen.go").fockUpdates(6)
		callbacks := tr.under("internal/core", "internal/integrals").funcTypes("int32, int32, []float64")
		return append(one(bodies, "core.contract"), none(callbacks)...)
	}, []plant{
		{"internal/nwchem/plant.go", "package nwchem\nfunc plant(f, d []float64, ij, kl, ik, jl, il, jk int, v float64) {\n\tf[ij] += 4 * v * d[kl]\n\tf[kl] += 4 * v * d[ij]\n\tf[ik] -= v * d[jl]\n\tf[jl] -= v * d[ik]\n\tf[il] -= v * d[jk]\n\tf[jk] -= v * d[il]\n}"},
		{"internal/nwchem/plant.go", `package nwchem
func plant(f, d, vals []float64, ri, rj, rk, ij, ik, jk, oq, nq int, dij, dik, djk float64) {
	for gl := oq; gl < oq+nq; gl++ {
		kl, il, jl := rk+gl, ri+gl, rj+gl
		v := vals[gl-oq]
		f[ij] += 4 * v * d[kl]
		f[kl] += 4 * v * dij
		f[ik] -= v * d[jl]
		f[jl] -= v * dik
		f[il] -= v * djk
		f[jk] -= v * d[il]
	}
}`},
		{"internal/integrals/plant.go", `package integrals; func (s *ERIStore) plant(task int, visit func(p, q int32, vals []float64)) {}`},
		{"internal/nwchem/plant.go", `package nwchem
func plant(fij, fkl, fik, fjl, fil, fjk *float64, v, dij, dkl, dik, djl, dil, djk float64) {
	*fij += 4 * v * dkl
	*fkl += 4 * v * dij
	*fik -= v * djl
	*fjl -= v * dik
	*fil -= v * djk
	*fjk -= v * dil
}`},
	}},
	// The one contraction's unchecked loop (DESIGN §11 "One contraction")
	// keeps unsafe to three files: the Boys table's alignment, the store's
	// byte accounting, and the file holding core.contract.
	{"unsafe-perimeter", "outside tests only internal/integrals/boys.go, internal/integrals/eristore.go and the file holding core.contract import unsafe", func(tr files) []string {
		where := []string{"internal/integrals/boys.go", "internal/integrals/eristore.go"}
		for _, s := range tr.code().under("internal/core").funcs("contract") {
			if s.decl == "core.contract" {
				where = append(where, s.path)
			}
		}
		return atMost(3, tr.code().imports("unsafe"), where...)
	}, []plant{{"internal/core/plant.go", `package core; import "unsafe"; var plant = unsafe.Sizeof(0)`}}},

	// One printer (DESIGN §2): cmd/paper's experiments return tables as
	// values, and render writes them.
	{"paper-one-printer", "cmd/paper prints through render alone: no fmt.Print* call, and os.Stdout only in main, handed to render", func(tr files) []string {
		paper := tr.code().under("cmd/paper")
		return append(none(paper.calls("fmt.Print*")), one(paper.uses("os.Stdout"), "main.main")...)
	}, []plant{
		{"cmd/paper/tables.go", `func (l *lab) plant() table { fmt.Printf("Table X\n"); return table{} }`},
		{"cmd/paper/claims.go", `func (l *lab) plant() { fmt.Fprintln(os.Stdout, "Claims") }`},
	}},

	// One quartet screen (DESIGN §8): Schwarz at tau over a primitive
	// prescreen fixed at integrals.PrimTol.
	{"screen-deleted", "the density-weighted screen, the dD telescope and the QQR bound stay gone", func(tr files) []string {
		return none(tr.under("cmd", "internal", "gtfock.go").uses("DensityScreen", "DeltaD", "UpdateDensity", "MaxQuartetDensity", "NewQQR"))
	}, []plant{{"internal/screen/plant.go", `package screen; func NewQQR() {}`}}},
	{"screen-primtol-field", "no struct but integrals.Engine has a PrimTol field to thread a second value through", func(tr files) []string {
		return atMost(1, tr.under("cmd", "internal", "gtfock.go").fields("*", "PrimTol"), "integrals.Engine")
	}, []plant{{"internal/core/plant.go", `package core; type plantOptions struct{ PrimTol float32 }`}}},
	{"screen-primtol-readers", "integrals.PrimTol is read by the four production pair tables and cmd/paper's Table V", func(tr files) []string {
		return same(decls(tr.code().under("cmd", "internal", "gtfock.go").uses("integrals.PrimTol")),
			"core.NewBuilder", "main.(*lab).table5", "nwchem.Build", "scf.RunHF", "scf.atomicDensity")
	}, []plant{{"internal/serve/plant.go", `package serve; import "gtfock/internal/integrals"; var tol = integrals.PrimTol`}}},

	// One perimeter (DESIGN §1 "Perimeter").
	{"perimeter-reached", "every internal package is in the non-test dependency closure of a command, the benchmark or the facade",
		func(tr files) []string {
			return tr.unreached(tr.under("internal").pkgs(), "cmd", "benchmark", ".")
		},
		[]plant{{"internal/unreached/plant.go", `package unreached`}}},
	{"perimeter-deleted", "the packages, alternatives and test-only helpers deleted for serving no tier and no table stay gone",
		func(tr files) []string {
			fs := tr.under("cmd", "internal", "examples", "gtfock.go")
			return none(append(fs.imports("gtfock/internal/correlate", "gtfock/internal/props"),
				fs.uses("AOTensor", "reorder.Morton", "StealRichest", "finalizeOrbitals", "gwhGuess", "GrapheneRibbon", "MatMulParallel", "runChaos")...))
		}, []plant{
			{"internal/scf/plant_test.go", `package scf; import _ "gtfock/internal/props"`},
			{"cmd/paper/plant.go", `package main; import "gtfock/internal/reorder"; var _ = reorder.Morton`},
			{"internal/net/plant_test.go", `package netga; func runChaos() {}`},
		}},
	{"perimeter-one-electron", "the per-matrix T and V builders and their per-pair context live only in the tests' oracle", func(tr files) []string {
		return none(tr.code().under("internal/integrals").uses("newOE1Ctx", "Kinetic", "NuclearAttraction"))
	}, []plant{{"internal/integrals/plant.go", `package integrals; func Kinetic() {}`}}},
	{"perimeter-commands", "cmd/ holds exactly the seven commands", func(tr files) []string {
		return same(tr.under("cmd").pkgs(), "cmd/fockbuild", "cmd/fockd", "cmd/hf", "cmd/hfd", "cmd/kernelgen", "cmd/loadgen", "cmd/paper")
	}, []plant{{"cmd/extra/main.go", `package main; func main() {}`}}},
	{"perimeter-examples", "examples/ holds exactly the one compiled README snippet", func(tr files) []string {
		return same(tr.under("examples").pkgs(), "examples/quickstart")
	}, []plant{{"examples/second/main.go", `package main; func main() {}`}}},

	// One starting density (DESIGN §1 "Starting density").
	{"guess-options", "scf.Options has no Guess* or InitialDensity field", func(tr files) []string {
		return none(tr.code().under("internal/scf").fields("scf.Options", "Guess*", "InitialDensity"))
	}, []plant{
		{"internal/scf/plant.go", `package scf; type Options struct{ Guess string }`},
		{"internal/scf/plant.go", `package scf; import "gtfock/internal/linalg"; type Options struct{ InitialDensity *linalg.Matrix }`},
	}},
	{"guess-flag", "neither hf nor fockbuild defines a -guess flag", func(tr files) []string {
		return none(tr.code().under("cmd/hf", "cmd/fockbuild").flags("guess*"))
	}, []plant{{"cmd/hf/plant.go", `package main; import "flag"; var _ = flag.String("guess", "sad", "starting density")`}}},
	{"guess-identity", "fockbuild's identity density stays gone", func(tr files) []string {
		return none(tr.under("cmd", "internal", "gtfock.go").uses("guessDensity"))
	}, []plant{{"cmd/fockbuild/plant.go", `package main; func guessDensity() {}`}}},
	{"guess-atomic", "exactly one function (atomicDensity) runs the atomic SCF", func(tr files) []string {
		return same(decls(tr.code().under("internal/scf").calls("sphericalBlock")), "scf.atomicDensity")
	}, []plant{{"internal/scf/plant.go", `package scf; func atomicDensity2() { sphericalBlock(nil, nil, 0, nil, nil, nil, nil) }`}}},
	{"guess-memo", "only the memo (atomFor) calls atomicDensity", func(tr files) []string {
		return same(decls(tr.code().under("internal/scf").calls("atomicDensity")), "scf.atomFor")
	}, []plant{{"internal/scf/plant.go", `package scf; func plant() { atomicDensity("sto-3g", 6) }`}}},

	// One Fock build in the SCF (DESIGN §1 row 12).
	{"scf-no-nwchem", "internal/scf never imports the NWChem baseline (a Fock-build comparison, not an SCF engine)", func(tr files) []string {
		return none(tr.code().under("internal/scf").imports("gtfock/internal/nwchem"))
	}, []plant{{"internal/scf/plant.go", `package scf; import _ "gtfock/internal/nwchem"`}}},
	{"scf-one-build", "internal/scf builds G in one place: buildG, the one Build call on a core.Builder (and no core.Build)", func(tr files) []string {
		return one(tr.code().under("internal/scf").find(func(n node) string {
			c, ok := n.n.(*ast.CallExpr)
			if !ok {
				return ""
			}
			if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Build" && named(sel, "basis.Build") == "" {
				return types.ExprString(sel)
			}
			return ""
		}), "scf.buildG")
	}, []plant{
		{"internal/scf/plant.go", `package scf; import "gtfock/internal/core"; func plant() { core.Build(nil, nil, nil, core.Options{}) }`},
		{"internal/scf/plant.go", `package scf; import "gtfock/internal/core"; func plant(fb *core.Builder) { fb.Build(nil, core.Options{}) }`},
	}},
	{"scf-one-builder", "a solve makes one core.Builder: RunHF and the atomic guess each make theirs, and nothing else does", func(tr files) []string {
		return same(decls(tr.code().under("internal/scf").calls("core.NewBuilder")), "scf.RunHF", "scf.atomicDensity")
	}, []plant{{"internal/scf/plant.go", `package scf; import "gtfock/internal/core"; func plant() { core.NewBuilder(nil, nil, nil, core.Options{}) }`}}},
	{"scf-build-callers", "RunHF and the atomic guess both call buildG, and nothing else does", func(tr files) []string {
		return same(decls(tr.code().under("internal/scf").calls("buildG")), "scf.RunHF", "scf.atomicDensity")
	}, []plant{{"internal/scf/plant.go", `package scf; func plant() { buildG(nil, nil, Options{}) }`}}},

	// A buffer has one owner (DESIGN §5 "Lanes"): the Fock build, the
	// solve and the transport keep theirs in the struct that owns them.
	{"no-sync-pool", "internal/core, internal/scf and internal/net use no sync.Pool: it hides who owns a buffer", func(tr files) []string {
		return none(tr.under("internal/core", "internal/scf", "internal/net").uses("sync.Pool"))
	}, []plant{{"internal/net/plant.go", `package netga; import "sync"; var bufs sync.Pool`}}},
	{"scf-engines", "the NWChem and serial SCF engine values and the guess's hand-rolled ERI tensor stay gone", func(tr files) []string {
		return none(tr.under("cmd", "internal", "examples", "gtfock.go").uses("EngineNWChem", "EngineSerial", "eriTensor"))
	}, []plant{{"internal/scf/plant.go", `package scf; const EngineSerial Engine = "serial"`}}},
	{"scf-engine-flag", "hf has no -engine flag", func(tr files) []string {
		return none(tr.code().under("cmd/hf").flags("engine"))
	}, []plant{{"cmd/hf/plant.go", `package main; import "flag"; var _ = flag.String("engine", "gtfock", "Fock engine")`}}},
}
