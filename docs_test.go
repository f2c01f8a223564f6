package cinder

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// mdLink matches inline markdown links/images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks walks every tracked markdown file and verifies
// that each relative link resolves to a file in the repository. The CI
// docs job runs this, so a renamed document or a typoed path breaks
// the build instead of rotting silently. External links (with a URL
// scheme) and pure anchors are skipped — the check is about repo
// integrity, not the internet.
func TestMarkdownLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(strings.ToLower(d.Name()), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) < 5 {
		t.Fatalf("found only %d markdown files; the walk looks broken: %v", len(mdFiles), mdFiles)
	}

	for _, md := range mdFiles {
		if filepath.Base(md) == "SNIPPETS.md" {
			// SNIPPETS.md quotes exemplar code from external repositories;
			// its "links" are paths inside those repos, not this one.
			continue
		}
		body, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // in-document anchor
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", md, m[0], resolved)
			}
		}
	}
}

// TestReadmeCoversEntryPoints pins the README's promises: the
// quickstart commands and companion documents it names must exist.
func TestReadmeCoversEntryPoints(t *testing.T) {
	body, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("README.md missing: %v", err)
	}
	s := string(body)
	for _, want := range []string{
		"go test ./...",
		"cinder-sim -all",
		"ba500c48834931ae427013b72a47ea33", // the frozen artifact hash
		"cinder-fleet",
		"-checkpoint-dir",
		"-shard",
		"-merge",
		"DESIGN.md",
		"EXPERIMENTS.md",
		"CHANGES.md",
		"docs/fleet-report.md",
		"BENCH_week.json",
		"cinder-perfcheck",
		"-update-baseline",
		"docs/perf-harness.md",
		"bench/trend.ndjson",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("README.md does not mention %q", want)
		}
	}
}

// flagDef matches a flag definition: fs.String("name", ...) and kin.
var flagDef = regexp.MustCompile(`\.(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration)\("([a-z0-9-]+)"`)

// cliFlag matches a -flag token on a command line.
var cliFlag = regexp.MustCompile(`\s-([a-z][a-z0-9-]*)`)

// definedFlags returns the flags the command in dir defines — its own,
// and the run flags fleet.BindFlags declares for it — failing unless
// every name in want is among them (a guard against a broken scan).
func definedFlags(t *testing.T, dir string, want ...string) map[string]bool {
	t.Helper()
	defined := map[string]bool{}
	srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if strings.HasSuffix(src, "_test.go") {
			continue
		}
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(b), -1) {
			defined[m[1]] = true
		}
	}
	for _, name := range want {
		if !defined[name] {
			t.Fatalf("flag scan of %s found %d flags, not -%s; the scan looks broken", dir, len(defined), name)
		}
	}
	run := flag.NewFlagSet("run", flag.ContinueOnError)
	fleet.BindFlags(run)
	run.VisitAll(func(f *flag.Flag) { defined[f.Name] = true })
	return defined
}

// checkDocFlags fails on every -flag of a command line in the
// user-facing documents that defined lacks (name is the command), so
// removing or renaming a flag cannot leave a copy-pasteable example
// behind. A command line runs from a match of cmd to the end of the
// line (backslash continuations joined), stopping at the next match of
// cmd, a pipe, redirection, command separator, comment or closing
// backtick.
func checkDocFlags(t *testing.T, name string, cmd *regexp.Regexp, defined map[string]bool) {
	t.Helper()
	seen := 0
	for _, doc := range userDocs(t) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(b), "\n")
		for i := 0; i < len(lines); i++ {
			start, line := i+1, lines[i]
			for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, "\\") + " " + lines[i]
			}
			for _, seg := range cmd.Split(line, -1)[1:] {
				if end := strings.IndexAny(seg, "|>&;#`"); end >= 0 {
					seg = seg[:end]
				}
				for _, m := range cliFlag.FindAllStringSubmatch(seg, -1) {
					seen++
					if !defined[m[1]] {
						t.Errorf("%s:%d: %s has no -%s flag", doc, start, name, m[1])
					}
				}
			}
		}
	}
	if seen == 0 {
		t.Fatalf("found no %s flags in the documents; the scan looks broken", name)
	}
}

// TestDocsUseDefinedFleetFlags: every -flag on a cinder-fleet command
// line in the user-facing documents is a flag cmd/cinder-fleet defines.
func TestDocsUseDefinedFleetFlags(t *testing.T) {
	checkDocFlags(t, "cinder-fleet", regexp.MustCompile(`cinder-fleet`), definedFlags(t, "cmd/cinder-fleet", "shard", "merge"))
}

// TestDocsUseDefinedCoordFlags: every -flag on a cinder-coord
// serve|submit|status|result command line in the user-facing documents
// is a flag cmd/cinder-coord defines.
func TestDocsUseDefinedCoordFlags(t *testing.T) {
	checkDocFlags(t, "cinder-coord", regexp.MustCompile(`cinder-coord (?:serve|submit|status|result)\b`),
		definedFlags(t, "cmd/cinder-coord", "listen", "wait", "status-every"))
}

// userDocs lists the user-facing documents the doc checks scan.
func userDocs(t *testing.T) []string {
	t.Helper()
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")
}

// codeSpan matches an inline backticked span on one line.
var codeSpan = regexp.MustCompile("`([^`\n]+)`")

// qualifiedIdent matches a package-qualified exported identifier.
var qualifiedIdent = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)`)

// TestDocsNameDeclaredIdentifiers: every backticked pkg.Name in the
// user-facing documents, where internal/**/pkg is a package of this
// repository, must name a top-level declaration of that package — so
// deleting or renaming an API cannot leave a stale reference behind.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	pkgDirs := map[string][]string{}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			pkgDirs[d.Name()] = append(pkgDirs[d.Name()], path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	declared := func(pkg string) map[string]bool {
		if names, ok := decls[pkg]; ok {
			return names
		}
		names := map[string]bool{}
		for _, dir := range pkgDirs[pkg] {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkgs {
				for _, f := range p.Files {
					for _, d := range f.Decls {
						switch d := d.(type) {
						case *ast.FuncDecl:
							if d.Recv == nil {
								names[d.Name.Name] = true
							}
						case *ast.GenDecl:
							for _, spec := range d.Specs {
								switch spec := spec.(type) {
								case *ast.TypeSpec:
									names[spec.Name.Name] = true
								case *ast.ValueSpec:
									for _, n := range spec.Names {
										names[n.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
		decls[pkg] = names
		return names
	}

	checked := 0
	for _, doc := range userDocs(t) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, m := range qualifiedIdent.FindAllStringSubmatch(span[1], -1) {
					if _, ok := pkgDirs[m[1]]; !ok {
						continue
					}
					checked++
					if !declared(m[1])[m[2]] {
						t.Errorf("%s:%d: `%s.%s`: package %s declares no %s", doc, i+1, m[1], m[2], m[1], m[2])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no package-qualified identifiers in the documents; the scan looks broken")
	}
}

// testName matches a test, fuzz target or benchmark name, with an
// optional trailing * that makes it a prefix.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)

// TestDocsNameDeclaredTests: every TestXxx, FuzzXxx or BenchmarkXxx
// the user-facing documents name — in prose, in a backticked span or in
// a fenced command such as go test -run 'TestA|TestB' — must be
// declared in some _test.go file of the repository, so renaming or
// deleting a test cannot leave the documents pointing at nothing. A
// trailing * matches every name it prefixes. ROADMAP.md and CHANGES.md
// are history and are not checked.
func TestDocsNameDeclaredTests(t *testing.T) {
	var declared []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				declared = append(declared, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	isDeclared := func(name string) bool {
		prefix, glob := strings.CutSuffix(name, "*")
		for _, d := range declared {
			if d == name || glob && strings.HasPrefix(d, prefix) {
				return true
			}
		}
		return false
	}

	checked := 0
	for _, doc := range userDocs(t) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, name := range testName.FindAllString(line, -1) {
				checked++
				if !isDeclared(name) {
					t.Errorf("%s:%d: %s: no _test.go file declares it", doc, i+1, name)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test names in the documents; the scan looks broken")
	}
}
