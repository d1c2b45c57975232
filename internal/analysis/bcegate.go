package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The bounds-check gate pins the tiled-kernel performance claim as
// policy-in-code: the LUT kernels' throughput rests on the compiler
// proving every per-element access in their innermost loops in-bounds,
// and one careless index rewrite silently re-inserts a branch per MAC.
// Unlike the AST analyzers, this gate drives the compiler itself
// (`go build -gcflags=-d=ssa/check_bce`) and filters its findings down
// to the innermost loops of the functions named in bce_policy.txt.
// Sites the prove pass fundamentally cannot handle (data-dependent
// sparse scatters) are allowlisted there, with reasons, next to the
// gate entries.

// BCEPolicy is the parsed bce_policy.txt: which functions are gated
// and which file:line sites are accepted.
type BCEPolicy struct {
	// Path is the policy file, for diagnostics about its entries.
	Path string
	// Gated maps "file.go:funcName" (basename) to true.
	Gated map[string]bool
	// Allowed maps "file.go:line" (basename) to the recorded reason.
	Allowed map[string]string
	// Line maps each gate and allow entry (its Gated or Allowed key) to
	// its line in the policy file.
	Line map[string]int
}

// LoadBCEPolicy parses the policy file. Lines are `gate file.go:func`,
// `allow file.go:line -- reason`, blank, or #-comments.
func LoadBCEPolicy(path string) (*BCEPolicy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p := &BCEPolicy{Path: path, Gated: map[string]bool{}, Allowed: map[string]string{}, Line: map[string]int{}}
	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		verb, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch verb {
		case "gate":
			p.Gated[rest] = true
			p.Line[rest] = lineno
		case "allow":
			site, reason, _ := strings.Cut(rest, "--")
			site = strings.TrimSpace(site)
			p.Allowed[site] = strings.TrimSpace(reason)
			p.Line[site] = lineno
		default:
			return nil, fmt.Errorf("%s:%d: unknown policy verb %q", path, lineno, verb)
		}
	}
	return p, sc.Err()
}

var bceDiag = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): Found (IsInBounds|IsSliceInBounds)`)

// RunBCE builds pkgs (package directories relative to the module root,
// like ./internal/axnn) in one go build with the SSA check_bce debug
// flag and returns the bounds checks that land inside the innermost
// loops of gated functions and are not allowlisted. -a defeats the
// build cache, which would otherwise swallow the compiler's
// diagnostics on a cache hit. Policy entries name files by basename,
// so gated files need distinct basenames across pkgs.
//
// It also reports stale policy entries, which would otherwise gate
// nothing without a sound: a gate entry that names no function body
// in pkgs (the kernel was renamed or moved), and an allow entry whose
// line lies outside every gated innermost loop (the code above it
// moved).
func RunBCE(moduleRoot string, policy *BCEPolicy, pkgs ...string) ([]Diagnostic, error) {
	args := append([]string{"build", "-a", "-gcflags=-d=ssa/check_bce"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	// check_bce findings are warnings (exit 0); a nonzero status means
	// the build itself failed, and the output is the explanation.
	if err != nil {
		return nil, fmt.Errorf("go build -d=ssa/check_bce: %v\n%s", err, out)
	}

	ranges := map[string][]loopRange{}
	found := map[string]bool{}
	for _, pkg := range pkgs {
		pkgDir := filepath.Join(moduleRoot, filepath.FromSlash(strings.TrimPrefix(pkg, "./")))
		if err := gatedInnerLoopRanges(pkgDir, policy, ranges, found); err != nil {
			return nil, err
		}
	}

	diags := stalePolicyEntries(policy, ranges, found, pkgs)
	for _, line := range strings.Split(string(out), "\n") {
		m := bceDiag.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		file := m[1]
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		base := filepath.Base(file)
		fn := innermostGatedLoop(ranges, base, lineNo)
		if fn == "" {
			continue // outside every gated innermost loop
		}
		if _, ok := policy.Allowed[fmt.Sprintf("%s:%d", base, lineNo)]; ok {
			continue
		}
		diags = append(diags, Diagnostic{
			Analyzer: "bcegate",
			File:     file,
			Line:     lineNo,
			Col:      col,
			Message:  fmt.Sprintf("%s in innermost loop of gated kernel %s: this inserts a branch per element; restructure so the prove pass can eliminate it, or allowlist the site in bce_policy.txt with a reason", m[4], fn),
		})
	}
	return diags, nil
}

// stalePolicyEntries returns a diagnostic, at its line in the policy
// file, for every gate entry that matched no function body (found
// holds the ones that did) and every allow entry outside all gated
// innermost loops, in policy-file order.
func stalePolicyEntries(policy *BCEPolicy, ranges map[string][]loopRange, found map[string]bool, pkgs []string) []Diagnostic {
	var diags []Diagnostic
	stale := func(key, msg string) {
		diags = append(diags, Diagnostic{Analyzer: "bcegate", File: policy.Path, Line: policy.Line[key], Col: 1, Message: msg})
	}
	for key := range policy.Gated {
		if !found[key] {
			stale(key, fmt.Sprintf("stale gate entry %s: no such function body in %s; point it at the kernel's current file and name", key, strings.Join(pkgs, " ")))
		}
	}
	for key := range policy.Allowed {
		file, line, _ := strings.Cut(key, ":")
		if n, err := strconv.Atoi(line); err != nil || innermostGatedLoop(ranges, file, n) == "" {
			stale(key, fmt.Sprintf("stale allow entry %s: the line lies outside every gated innermost loop; point it at the site's current line or delete it", key))
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// innermostGatedLoop returns the gated function whose innermost loop
// body holds file:line (file is a basename), or "" if none does.
func innermostGatedLoop(ranges map[string][]loopRange, file string, line int) string {
	for _, r := range ranges[file] {
		if line > r.lbrace && line <= r.rbrace {
			return r.fn
		}
	}
	return ""
}

// loopRange is one innermost-loop body: diagnostics with
// lbrace < line <= rbrace fall inside it. The range deliberately
// excludes the for/range header line itself — the per-iteration bound
// checks the runtime performs on the range expression are charged to
// that line and are not per-element work.
type loopRange struct {
	fn     string
	lbrace int
	rbrace int
}

// gatedInnerLoopRanges parses the package directory's files that the
// build compiles (syntax only) and adds to ranges, per file basename,
// the innermost-loop body line ranges of every gated function, and to
// found the gate keys of the gated functions it saw.
func gatedInnerLoopRanges(pkgDir string, policy *BCEPolicy, ranges map[string][]loopRange, found map[string]bool) error {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(pkgDir, name); err != nil {
			return err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pkgDir, name), nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !policy.Gated[name+":"+fd.Name.Name] {
				continue
			}
			found[name+":"+fd.Name.Name] = true
			for _, body := range innermostLoopBodies(fd.Body) {
				ranges[name] = append(ranges[name], loopRange{
					fn:     fd.Name.Name,
					lbrace: fset.Position(body.Lbrace).Line,
					rbrace: fset.Position(body.Rbrace).Line,
				})
			}
		}
	}
	return nil
}

// innermostLoopBodies returns the bodies of loops that contain no
// nested loop — the per-element hot paths the gate protects.
func innermostLoopBodies(body *ast.BlockStmt) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	var visit func(n ast.Node)
	visit = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			var b *ast.BlockStmt
			switch l := m.(type) {
			case *ast.ForStmt:
				b = l.Body
			case *ast.RangeStmt:
				b = l.Body
			default:
				return true
			}
			if containsLoop(b) {
				visit(b) // descend; only the innermost level is gated
			} else {
				out = append(out, b)
			}
			return false
		})
	}
	visit(body)
	return out
}

func containsLoop(b *ast.BlockStmt) bool {
	found := false
	ast.Inspect(b, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}
