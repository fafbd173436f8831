package main

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// inlineCode matches a Markdown code span, which may wrap a line.
var inlineCode = regexp.MustCompile("`([^`]+)`")

// TestQuotedCommandsRun holds every command README.md, DESIGN.md and
// EXPERIMENTS.md quote (in a code block or a code span), and every run:
// step of the CI workflows, to the code: a quoted `go run ./<dir>` names a
// directory holding a main package; every flag on a gridsim command exists
// and is read by the mode the command selects (the mode table's own rule,
// pick and stray); and every flag on an aqosd or qosctl command is one its
// main.go declares. Flag values are not checked, so a placeholder such as
// `-seed N` quotes fine.
func TestQuotedCommandsRun(t *testing.T) {
	checked := 0
	check := func(source string, quotes []string) {
		for _, quote := range quotes {
			n, err := checkQuote(strings.Fields(quote))
			if err != nil {
				t.Errorf("%s quotes `%s`: %v", source, strings.Join(strings.Fields(quote), " "), err)
			}
			checked += n
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		check(doc, quotedCode(readRepoFile(t, doc)))
	}
	workflows, err := filepath.Glob(filepath.Join("..", "..", ".github", "workflows", "*.yml"))
	if err != nil || len(workflows) == 0 {
		t.Fatalf("no workflows found: %v", err)
	}
	for _, wf := range workflows {
		check(filepath.Base(wf), workflowRuns(readRepoFile(t, filepath.Join(".github", "workflows", filepath.Base(wf)))))
	}
	if checked < 100 {
		t.Errorf("only %d quoted commands found: the scan is reading the wrong thing", checked)
	}
}

func readRepoFile(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// shellLines joins `\` continuations and cuts shell comments.
type shellLines struct {
	out  []string
	cont strings.Builder
}

func (s *shellLines) add(line string) {
	if strings.HasSuffix(line, `\`) {
		s.cont.WriteString(strings.TrimSuffix(line, `\`) + " ")
		return
	}
	code, _, _ := strings.Cut(s.cont.String()+line, " #")
	s.out = append(s.out, code)
	s.cont.Reset()
}

// quotedCode returns the code-block lines and the code spans of a
// Markdown document.
func quotedCode(doc string) []string {
	var code shellLines
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case !fenced:
			prose.WriteString(line + "\n")
		default:
			code.add(line)
		}
	}
	for _, m := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
		code.out = append(code.out, m[1])
	}
	return code.out
}

// workflowRuns returns the shell lines of a workflow's run: steps, both
// the one-line form and the `run: |` block (every following line indented
// deeper than the key).
func workflowRuns(yml string) []string {
	var code shellLines
	block := -1 // the open block's key indentation; -1 outside a block
	for _, line := range strings.Split(yml, "\n") {
		trimmed := strings.TrimSpace(line)
		indent := len(line) - len(strings.TrimLeft(line, " "))
		if block >= 0 && (trimmed == "" || indent > block) {
			code.add(trimmed)
			continue
		}
		block = -1
		if cmd, ok := strings.CutPrefix(strings.TrimPrefix(trimmed, "- "), "run:"); ok {
			if cmd = strings.TrimSpace(cmd); cmd == "|" {
				block = indent
			} else {
				code.add(cmd)
			}
		}
	}
	return code.out
}

// checkQuote checks every go run, gridsim, aqosd and qosctl command in a
// tokenized quote and returns how many it found. A `cd <dir>` earlier in
// the quote moves the directory a go run resolves from.
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
			if err := commandArgs(strings.TrimPrefix(tokens[i], "./cmd/"), tokens[i+1:]); err != nil {
				return n, err
			}
		case !strings.HasPrefix(tok, ".") && slices.Contains([]string{"gridsim", "aqosd", "qosctl"}, path.Base(tok)):
			n++
			if err := commandArgs(path.Base(tok), tokens[i+1:]); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// commandArgs checks the arguments of one command invocation; commands
// other than gridsim, aqosd and qosctl are not checked.
func commandArgs(command string, args []string) error {
	switch command {
	case "gridsim":
		return gridsimArgs(args)
	case "aqosd", "qosctl":
		return declaredArgs(command, args)
	}
	return nil
}

// flagDecl matches a flag declaration on a flag.FlagSet, capturing its
// name.
var flagDecl = regexp.MustCompile(`\.(?:(?:String|Bool|Int|Int64|Float64|Duration)(?:Var)?|Var)\((?:&[\w.]+, )?"([a-z][a-z0-9-]*)"`)

// declaredArgs checks every flag among args, up to the end of the shell
// command, against the flags command's main.go declares on any of its
// flag sets (qosctl's subcommands each have their own).
func declaredArgs(command string, args []string) error {
	src, err := os.ReadFile(filepath.Join("..", command, "main.go"))
	if err != nil {
		return err
	}
	declared := map[string]bool{"h": true, "help": true}
	for _, m := range flagDecl.FindAllStringSubmatch(string(src), -1) {
		declared[m[1]] = true
	}
	for _, arg := range args {
		if slices.Contains([]string{"|", "||", "&&", ";", "&"}, arg) || strings.HasPrefix(arg, ">") {
			return nil
		}
		name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
		if strings.HasPrefix(arg, "-") && name != "" && !declared[name] {
			return fmt.Errorf("%s has no flag -%s", command, name)
		}
	}
	return nil
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
