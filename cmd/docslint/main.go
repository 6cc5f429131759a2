// Command docslint checks the repository's documentation invariants and
// exits non-zero listing every violation:
//
//  1. every Go package in the repository (internal/..., cmd/..., the
//     root) carries a godoc package comment ("Package x ..." — or
//     "Command x ..." for main packages) in at least one of its files;
//  2. every relative link in the repository's Markdown files resolves
//     to an existing file, and every fragment (#anchor, same-file or
//     cross-file) matches a heading of the linked document, using
//     GitHub's heading-to-anchor slug rules;
//  3. every package under internal/ carries a doc comment on every
//     exported top-level declaration;
//  4. docs/OPERATIONS.md mentions every flag the CLIs register
//     (`cmd/dfiflow`, `cmd/dfibench`), and the flag tables under its
//     "## dfiflow" and "## dfibench" headings name only flags that
//     command registers, so the operator's handbook can neither fall
//     behind a new flag nor keep a deleted one.
//
// External links (http/https/mailto) are not fetched — the checker is
// offline and deterministic, suitable for CI (`make docs-lint`).
// Fenced code blocks are skipped so exemplar code in the docs cannot
// produce false positives.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkPackageComments(root)...)
	problems = append(problems, checkMarkdownLinks(root)...)
	problems = append(problems, checkExportedDocs(root)...)
	problems = append(problems, checkFlagManifest(root)...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docslint:", p)
		}
		fmt.Fprintf(os.Stderr, "docslint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docslint: ok")
}

// skipDir reports directories the walkers never descend into.
func skipDir(name string) bool {
	return name == ".git" || name == "bin" || name == "testdata" || strings.HasPrefix(name, ".")
}

// checkPackageComments walks every directory containing non-test Go
// files and verifies at least one file carries a package comment.
func checkPackageComments(root string) []string {
	var problems []string
	dirs := map[string][]string{}
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], path)
		}
		return nil
	})
	for dir, files := range dirs {
		documented := false
		for _, f := range files {
			fset := token.NewFileSet()
			af, err := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", f, err))
				continue
			}
			if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			problems = append(problems, fmt.Sprintf("%s: package has no package comment (add one, e.g. in doc.go)", dir))
		}
	}
	return problems
}

// checkExportedDocs verifies every exported top-level declaration of
// every package under internal/ is documented, stating at minimum its
// concurrency contract: the exported surface there is a contract (the
// DFI API and what it builds on, the transport layer a future verbs
// backend implements against, the registry, whose Status may not be
// called inside its monitor, and the use cases built on flows). The
// tree is walked, so a new package is audited from its first commit.
// Grouped declarations (a var/const block, or multiple names in one
// spec) are covered by a group comment.
func checkExportedDocs(root string) []string {
	var problems []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			return nil
		}
		for _, decl := range af.Decls {
			for _, name := range undocumentedExports(decl) {
				pos := fset.Position(decl.Pos())
				problems = append(problems, fmt.Sprintf(
					"%s:%d: exported %s has no doc comment (document it, including its concurrency contract)",
					path, pos.Line, name))
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("internal: %v", err))
	}
	return problems
}

// undocumentedExports returns the exported names a top-level
// declaration introduces without any covering doc comment.
func undocumentedExports(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil && !isExportedMethodOfUnexported(d) {
			out = append(out, d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					out = append(out, s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						out = append(out, n.Name)
					}
				}
			}
		}
	}
	return out
}

// isExportedMethodOfUnexported reports an exported method whose
// receiver type is unexported — interface satisfaction plumbing, not
// public surface.
func isExportedMethodOfUnexported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return ok && !id.IsExported()
}

// flagRe matches a flag registration: fs.Bool("name", ... or
// flag.String("name", ... — any receiver identifier, any flag kind.
var flagRe = regexp.MustCompile(`\b\w+\.(?:Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)\(\s*"([^"]+)"`)

// flagCLIs are the commands whose registered flags docs/OPERATIONS.md
// must document, each under a "## <name>" heading.
var flagCLIs = []string{"dfiflow", "dfibench"}

// flagRowRe matches a flag-table row: | `-name` | default | meaning |.
var flagRowRe = regexp.MustCompile("^\\|\\s*`-([^`]+)`\\s*\\|")

// checkFlagManifest extracts every flag name registered by the CLI
// sources and requires a literal `-name` mention in
// docs/OPERATIONS.md; in the other direction, every row of the flag
// tables in a CLI's section must name a flag that CLI registers.
func checkFlagManifest(root string) []string {
	opsPath := filepath.Join(root, "docs", "OPERATIONS.md")
	ops, err := os.ReadFile(opsPath)
	if err != nil {
		return []string{fmt.Sprintf("%s: operator's handbook missing: %v", opsPath, err)}
	}
	text := string(ops)
	var problems []string
	registered := make(map[string]map[string]bool) // CLI → flag names
	for _, cli := range flagCLIs {
		registered[cli] = make(map[string]bool)
		dir := filepath.Join(root, "cmd", cli)
		entries, err := os.ReadDir(dir)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", path, err))
				continue
			}
			for _, m := range flagRe.FindAllStringSubmatch(string(data), -1) {
				name := m[1]
				registered[cli][name] = true
				if !strings.Contains(text, "`-"+name+"`") {
					problems = append(problems, fmt.Sprintf(
						"%s: flag -%s registered in %s is not documented in %s (mention `-%s`)",
						opsPath, name, path, opsPath, name))
				}
			}
		}
	}
	section := "" // the "## " heading the line is under
	for i, line := range strings.Split(text, "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			section = strings.TrimSpace(h)
			continue
		}
		flags, ok := registered[section]
		if !ok {
			continue
		}
		if m := flagRowRe.FindStringSubmatch(line); m != nil && !flags[m[1]] {
			problems = append(problems, fmt.Sprintf(
				"%s:%d: the %s flag table documents -%s, which cmd/%s does not register",
				opsPath, i+1, section, m[1], section))
		}
	}
	return problems
}

// linkRe matches inline Markdown links [text](target). Images and
// reference-style links are out of scope for this repository.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// headingRe matches ATX headings.
var headingRe = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)

// checkMarkdownLinks verifies every relative link target (and fragment)
// in the repository's Markdown files.
func checkMarkdownLinks(root string) []string {
	var problems []string
	var mdFiles []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(strings.ToLower(path), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	anchors := map[string]map[string]bool{} // md path → slug set
	for _, f := range mdFiles {
		anchors[f] = headingSlugs(f)
	}
	for _, f := range mdFiles {
		for _, link := range relativeLinks(f) {
			target, frag, _ := strings.Cut(link.target, "#")
			dest := f
			if target != "" {
				dest = filepath.Join(filepath.Dir(f), target)
				if _, err := os.Stat(dest); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: dead link %q (no such file)", f, link.line, link.target))
					continue
				}
			}
			if frag == "" {
				continue
			}
			slugs, ok := anchors[dest]
			if !ok {
				if strings.HasSuffix(strings.ToLower(dest), ".md") {
					slugs = headingSlugs(dest)
					anchors[dest] = slugs
				} else {
					continue // fragment into a non-markdown file: not checkable
				}
			}
			if !slugs[strings.ToLower(frag)] {
				problems = append(problems, fmt.Sprintf("%s:%d: dead anchor %q (no heading %q in %s)", f, link.line, link.target, frag, dest))
			}
		}
	}
	return problems
}

// mdLink is one inline link occurrence.
type mdLink struct {
	target string
	line   int
}

// relativeLinks extracts the file's inline links that point at local
// targets, skipping fenced code blocks and external schemes.
func relativeLinks(path string) []mdLink {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var out []mdLink
	inFence := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			t := m[1]
			if strings.Contains(t, "://") || strings.HasPrefix(t, "mailto:") {
				continue
			}
			out = append(out, mdLink{target: t, line: i + 1})
		}
	}
	return out
}

// headingSlugs returns the GitHub-style anchor slugs of a Markdown
// file's headings (duplicates get -1, -2, ... suffixes).
func headingSlugs(path string) map[string]bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	slugs := map[string]bool{}
	seen := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := headingRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		slug := slugify(m[1])
		if n := seen[slug]; n > 0 {
			slugs[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			slugs[slug] = true
		}
		seen[slug]++
	}
	return slugs
}

// slugify lowers a heading into its GitHub anchor: lowercase, spaces to
// hyphens, punctuation (beyond hyphens and underscores) dropped.
// Inline-code backticks and emphasis markers are stripped first.
func slugify(heading string) string {
	heading = strings.NewReplacer("`", "", "*", "", "_", "_").Replace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		default:
			// dropped: punctuation, symbols, non-ASCII marks
		}
	}
	return b.String()
}
