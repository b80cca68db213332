package script

import (
	"errors"
	"fmt"
	"strings"
)

// ErrSyntax wraps all parse errors.
var ErrSyntax = errors.New("script: syntax error")

// Parse parses source text into a Script. The grammar is line-oriented:
//
//	line     := comment | command | if-open | "else" | "fi"
//	comment  := "#" text
//	command  := word+ [ (">" | ">>") word ]
//	if-open  := "if" command ";" "then"
//
// Words may be double- or single-quoted. Blank lines are skipped.
func Parse(src string) (*Script, error) {
	p := &parser{lines: strings.Split(src, "\n")}
	nodes, err := p.block("")
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, fmt.Errorf("%w: line %d: unexpected %q", ErrSyntax, p.pos+1, strings.TrimSpace(p.lines[p.pos]))
	}
	return &Script{Nodes: nodes}, nil
}

// MustParse is Parse for statically known sources; it panics on error.
//
//lint:allow deadexport tests build script fixtures with it
func MustParse(src string) *Script {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	lines []string
	pos   int
}

// block parses nodes until the terminator keyword (or EOF when
// terminator is ""). It leaves the terminator line unconsumed.
func (p *parser) block(terminator string) ([]Node, error) {
	var nodes []Node
	for p.pos < len(p.lines) {
		raw := p.lines[p.pos]
		line := strings.TrimSpace(raw)
		if line == "" {
			p.pos++
			continue
		}
		if strings.HasPrefix(line, "#") {
			nodes = append(nodes, &Comment{Text: line[1:]})
			p.pos++
			continue
		}
		word := firstWord(line)
		switch word {
		case "fi", "else":
			if terminator == "" {
				return nil, fmt.Errorf("%w: line %d: %q outside if", ErrSyntax, p.pos+1, word)
			}
			return nodes, nil
		case "if":
			n, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, n)
		case "then":
			return nil, fmt.Errorf("%w: line %d: unexpected 'then'", ErrSyntax, p.pos+1)
		default:
			cmd, err := parseCommand(line, p.pos+1)
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, cmd)
			p.pos++
		}
	}
	if terminator != "" {
		return nil, fmt.Errorf("%w: unexpected end of script, expected %q", ErrSyntax, terminator)
	}
	return nodes, nil
}

// parseIf parses `if <cond>; then` ... `else` ... `fi`.
func (p *parser) parseIf() (*If, error) {
	line := strings.TrimSpace(p.lines[p.pos])
	lineno := p.pos + 1
	rest := strings.TrimPrefix(line, "if")
	rest = strings.TrimSpace(rest)
	idx := strings.LastIndex(rest, ";")
	if idx < 0 || strings.TrimSpace(rest[idx+1:]) != "then" {
		return nil, fmt.Errorf("%w: line %d: 'if' must end with '; then'", ErrSyntax, lineno)
	}
	cond, err := parseCommand(strings.TrimSpace(rest[:idx]), lineno)
	if err != nil {
		return nil, err
	}
	p.pos++
	thenNodes, err := p.block("fi")
	if err != nil {
		return nil, err
	}
	var elseNodes []Node
	if p.pos < len(p.lines) && firstWord(strings.TrimSpace(p.lines[p.pos])) == "else" {
		p.pos++
		elseNodes, err = p.block("fi")
		if err != nil {
			return nil, err
		}
	}
	if p.pos >= len(p.lines) || firstWord(strings.TrimSpace(p.lines[p.pos])) != "fi" {
		return nil, fmt.Errorf("%w: line %d: missing 'fi'", ErrSyntax, lineno)
	}
	p.pos++
	return &If{Cond: cond, Then: thenNodes, Else: elseNodes}, nil
}

// parseCommand tokenizes a simple command with optional redirection.
func parseCommand(line string, lineno int) (*Command, error) {
	tokens, err := tokenize(line)
	if err != nil {
		return nil, fmt.Errorf("%w: line %d: %v", ErrSyntax, lineno, err)
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("%w: line %d: empty command", ErrSyntax, lineno)
	}
	cmd := &Command{Name: tokens[0]}
	i := 1
	for i < len(tokens) {
		switch tokens[i] {
		case ">", ">>":
			if i+1 >= len(tokens) {
				return nil, fmt.Errorf("%w: line %d: redirection without target", ErrSyntax, lineno)
			}
			if i+2 != len(tokens) {
				return nil, fmt.Errorf("%w: line %d: tokens after redirection target", ErrSyntax, lineno)
			}
			cmd.RedirectTo = tokens[i+1]
			cmd.Append = tokens[i] == ">>"
			return cmd, nil
		default:
			cmd.Args = append(cmd.Args, tokens[i])
			i++
		}
	}
	return cmd, nil
}

// tokenize splits a line into words honoring single and double quotes.
// The redirection operators ">" and ">>" are returned as separate tokens
// even without surrounding spaces.
func tokenize(line string) ([]string, error) {
	var tokens []string
	var cur strings.Builder
	started := false
	flush := func() {
		if started {
			tokens = append(tokens, cur.String())
			cur.Reset()
			started = false
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch c {
		case ' ', '\t':
			flush()
		case '\'', '"':
			quote := c
			j := i + 1
			for j < len(line) && line[j] != quote {
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated quote")
			}
			cur.WriteString(line[i+1 : j])
			started = true
			i = j
		case '>':
			flush()
			if i+1 < len(line) && line[i+1] == '>' {
				tokens = append(tokens, ">>")
				i++
			} else {
				tokens = append(tokens, ">")
			}
		case '#':
			// Inline comment terminates the command.
			flush()
			return tokens, nil
		default:
			cur.WriteByte(c)
			started = true
		}
	}
	flush()
	return tokens, nil
}

func firstWord(line string) string {
	for i := 0; i < len(line); i++ {
		if line[i] == ' ' || line[i] == '\t' || line[i] == ';' {
			return line[:i]
		}
	}
	return line
}
