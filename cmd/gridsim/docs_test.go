package main

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inlineCode matches a Markdown code span, which may wrap a line.
var inlineCode = regexp.MustCompile("`([^`]+)`")

// TestQuotedCommandsRun holds every command README.md, DESIGN.md and
// EXPERIMENTS.md quote (in a code block or a code span) to the code: a
// quoted `go run ./<dir>` names a directory holding a main package, and
// every flag on a quoted gridsim command exists and is read by the mode the
// command selects (the mode table's own rule, pick and stray). Flag values
// are not checked, so a placeholder such as `-shards N` quotes fine.
func TestQuotedCommandsRun(t *testing.T) {
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, quote := range quotedCode(string(data)) {
			n, err := checkQuote(strings.Fields(quote))
			if err != nil {
				t.Errorf("%s quotes `%s`: %v", doc, strings.Join(strings.Fields(quote), " "), err)
			}
			checked += n
		}
	}
	if checked < 20 {
		t.Errorf("only %d quoted commands found: the scan is reading the wrong thing", checked)
	}
}

// quotedCode returns the code-block lines (continuations joined, shell
// comments cut) and the code spans of a Markdown document.
func quotedCode(doc string) []string {
	var out []string
	var prose, cont strings.Builder
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case !fenced:
			prose.WriteString(line + "\n")
		case strings.HasSuffix(line, `\`):
			cont.WriteString(strings.TrimSuffix(line, `\`) + " ")
		default:
			code, _, _ := strings.Cut(cont.String()+line, " #")
			out = append(out, code)
			cont.Reset()
		}
	}
	for _, m := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
		out = append(out, m[1])
	}
	return out
}

// checkQuote checks every go run and gridsim command in a tokenized quote
// and returns how many it found. A `cd <dir>` earlier in the quote moves
// the directory a go run resolves from.
func checkQuote(tokens []string) (int, error) {
	n, cwd := 0, "."
	for i := 0; i < len(tokens); i++ {
		switch tok := tokens[i]; {
		case tok == "cd" && i+1 < len(tokens):
			cwd = tokens[i+1]
		case tok == "go" && i+1 < len(tokens) && tokens[i+1] == "run":
			i += 2
			for i < len(tokens) && strings.HasPrefix(tokens[i], "-") {
				i++ // go run's own flags (-race)
			}
			if i == len(tokens) {
				return n, errors.New("go run names no directory")
			}
			n++
			if err := mainPackage(cwd, tokens[i]); err != nil {
				return n, err
			}
			if tokens[i] == "./cmd/gridsim" {
				if err := gridsimArgs(tokens[i+1:]); err != nil {
					return n, err
				}
			}
		case tok == "gridsim" || strings.HasSuffix(tok, "/gridsim") && !strings.HasPrefix(tok, "."):
			n++
			if err := gridsimArgs(tokens[i+1:]); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// mainPackage reports whether dir, relative to cwd under the repository
// root, holds a main package.
func mainPackage(cwd, dir string) error {
	if dir != "." && !strings.HasPrefix(dir, "./") {
		return fmt.Errorf("go run %s: quote a ./ directory", dir)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", cwd, dir, "*.go"))
	if err != nil {
		return err
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
	}
	return fmt.Errorf("%s holds no main package", filepath.Join(cwd, dir))
}

// gridsimArgs checks the flags that open args — up to the first token that
// is not a flag or a flag's value, such as a pipe — against gridsim's flag
// set and the mode they select.
func gridsimArgs(args []string) error {
	fs := flagSet(&options{})
	set := map[string]bool{}
	var names []string
	for i := 0; i < len(args) && strings.HasPrefix(args[i], "-"); i++ {
		name, _, inline := strings.Cut(strings.TrimLeft(args[i], "-"), "=")
		if name == "h" || name == "help" {
			continue
		}
		f := fs.Lookup(name)
		if f == nil {
			return fmt.Errorf("gridsim has no flag -%s", name)
		}
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); !inline && !(ok && b.IsBoolFlag()) {
			i++ // the flag's value
		}
		set[name] = true
		names = append(names, name)
	}
	m := pick(func(name string) bool { return set[name] })
	for _, name := range names {
		if err := m.stray(name); err != nil {
			return err
		}
	}
	return nil
}
