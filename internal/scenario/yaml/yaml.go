// Package yaml is a small deterministic decoder for the YAML subset the
// scenario DSL uses, so the module stays zero-dependency. It understands
// block mappings, block sequences (including `- key: value` entries),
// scalars (bare, single- or double-quoted), and `#` comments — and nothing
// else: no anchors, no aliases, no flow collections, no multi-line scalars,
// no documents. Parse returns a Node tree or an error; it never panics
// (FuzzScenarioParse holds it to that).
//
// Mappings preserve key order, so every walk over a parsed document is
// deterministic — a property the scenario harness relies on for
// byte-identical reports.
package yaml

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates the three node shapes.
type Kind int

// Node kinds.
const (
	ScalarNode Kind = iota
	MapNode
	SeqNode
)

func (k Kind) String() string {
	switch k {
	case ScalarNode:
		return "scalar"
	case MapNode:
		return "mapping"
	case SeqNode:
		return "sequence"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one parsed value. Exactly one of the shape fields is meaningful,
// selected by Kind.
type Node struct {
	Kind Kind
	// Line is the 1-based source line the node starts on (error anchors).
	Line int

	// Value is the scalar text, unquoted. An empty mapping value
	// (`key:` with nothing nested) parses as an empty scalar.
	Value string

	// Keys holds a mapping's keys in document order; children the
	// corresponding values.
	Keys     []string
	children map[string]*Node

	// Items holds a sequence's elements in document order.
	Items []*Node
}

// Get returns the mapping child for key, or nil when n is not a mapping or
// the key is absent.
func (n *Node) Get(key string) *Node {
	if n == nil || n.Kind != MapNode {
		return nil
	}
	return n.children[key]
}

// Scalar returns the node's scalar value.
func (n *Node) Scalar() (string, error) {
	if n == nil {
		return "", fmt.Errorf("missing value")
	}
	if n.Kind != ScalarNode {
		return "", fmt.Errorf("line %d: want a scalar, have a %v", n.Line, n.Kind)
	}
	return n.Value, nil
}

// Int64 parses the scalar as a base-10 integer.
func (n *Node) Int64() (int64, error) {
	s, err := n.Scalar()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("line %d: %q is not an integer", n.Line, s)
	}
	return v, nil
}

// Float parses the scalar as a float.
func (n *Node) Float() (float64, error) {
	s, err := n.Scalar()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("line %d: %q is not a number", n.Line, s)
	}
	return v, nil
}

// Bool parses the scalar as true/false (also yes/no, on/off).
func (n *Node) Bool() (bool, error) {
	s, err := n.Scalar()
	if err != nil {
		return false, err
	}
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "true", "yes", "on":
		return true, nil
	case "false", "no", "off":
		return false, nil
	}
	return false, fmt.Errorf("line %d: %q is not a boolean", n.Line, s)
}

// line is one pre-processed source line: comments stripped, trailing space
// trimmed, indentation measured.
type line struct {
	n      int // 1-based source line number
	indent int
	text   string // content without indentation
}

// Parse decodes one document. The top level must be a mapping (the
// scenario format's shape); an empty document parses as an empty mapping.
func Parse(data []byte) (*Node, error) {
	lines, err := preprocess(string(data))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return &Node{Kind: MapNode, Line: 1, children: map[string]*Node{}}, nil
	}
	if lines[0].indent != 0 {
		return nil, fmt.Errorf("yaml: line %d: top level must not be indented", lines[0].n)
	}
	if isDashItem(lines[0].text) {
		return nil, fmt.Errorf("yaml: line %d: top level must be a mapping, not a sequence", lines[0].n)
	}
	node, next, err := parseMapping(lines, 0, 0)
	if err != nil {
		return nil, err
	}
	if next != len(lines) {
		return nil, fmt.Errorf("yaml: line %d: content outside the top-level mapping", lines[next].n)
	}
	return node, nil
}

// preprocess splits, strips comments, and measures indentation.
func preprocess(src string) ([]line, error) {
	var out []line
	for i, raw := range strings.Split(src, "\n") {
		// Indentation: spaces only. A tab anywhere in the indent is an
		// error (YAML's own rule, and the common scenario-file mistake).
		j := 0
		for j < len(raw) && raw[j] == ' ' {
			j++
		}
		if j < len(raw) && raw[j] == '\t' {
			return nil, fmt.Errorf("yaml: line %d: tab in indentation (use spaces)", i+1)
		}
		text := stripComment(raw[j:])
		text = strings.TrimRight(text, " \t\r")
		if text == "" {
			continue
		}
		out = append(out, line{n: i + 1, indent: j, text: text})
	}
	return out, nil
}

// stripComment removes a trailing `#`-comment, respecting quotes. A `#`
// only opens a comment at the start of the content or after whitespace.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t'):
			return s[:i]
		}
	}
	return s
}

// isDashItem reports whether the content is a sequence entry.
func isDashItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// splitKey finds the first unquoted `:` that ends a key (followed by a
// space or the end of the line) and returns key and the trimmed remainder.
func splitKey(text string) (key, rest string, ok bool) {
	var quote byte
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ':' && (i+1 == len(text) || text[i+1] == ' '):
			key = strings.TrimSpace(text[:i])
			rest = strings.TrimSpace(text[i+1:])
			if key == "" {
				return "", "", false
			}
			return unquote(key), rest, true
		}
	}
	return "", "", false
}

// unquote strips one level of matching quotes, handling the doubled-quote
// escape inside single quotes and backslash escapes inside double quotes.
func unquote(s string) string {
	if len(s) < 2 {
		return s
	}
	q := s[0]
	if (q != '\'' && q != '"') || s[len(s)-1] != q {
		return s
	}
	body := s[1 : len(s)-1]
	switch q {
	case '\'':
		return strings.ReplaceAll(body, "''", "'")
	default:
		if u, err := strconv.Unquote(s); err == nil {
			return u
		}
		return body
	}
}

// parseMapping consumes `key: ...` entries at exactly the given indent.
func parseMapping(lines []line, i, indent int) (*Node, int, error) {
	node := &Node{Kind: MapNode, Line: lines[i].n, children: map[string]*Node{}}
	for i < len(lines) {
		ln := lines[i]
		if ln.indent < indent {
			return node, i, nil
		}
		if ln.indent > indent {
			return nil, i, fmt.Errorf("yaml: line %d: unexpected indent (want %d spaces, have %d)", ln.n, indent, ln.indent)
		}
		if isDashItem(ln.text) {
			return nil, i, fmt.Errorf("yaml: line %d: sequence entry inside a mapping", ln.n)
		}
		key, rest, ok := splitKey(ln.text)
		if !ok {
			return nil, i, fmt.Errorf("yaml: line %d: expected `key: value`, have %q", ln.n, ln.text)
		}
		if _, dup := node.children[key]; dup {
			return nil, i, fmt.Errorf("yaml: line %d: duplicate key %q", ln.n, key)
		}
		var child *Node
		var err error
		if rest != "" {
			child = &Node{Kind: ScalarNode, Line: ln.n, Value: unquote(rest)}
			i++
		} else {
			child, i, err = parseValueBlock(lines, i+1, indent, ln.n)
			if err != nil {
				return nil, i, err
			}
		}
		node.Keys = append(node.Keys, key)
		node.children[key] = child
	}
	return node, i, nil
}

// parseValueBlock parses the value of a `key:` with nothing after the
// colon: a nested block indented deeper than parentIndent, or an empty
// scalar when the next line does not nest.
func parseValueBlock(lines []line, i, parentIndent, keyLine int) (*Node, int, error) {
	if i >= len(lines) || lines[i].indent <= parentIndent {
		return &Node{Kind: ScalarNode, Line: keyLine, Value: ""}, i, nil
	}
	childIndent := lines[i].indent
	if isDashItem(lines[i].text) {
		return parseSequence(lines, i, childIndent)
	}
	return parseMapping(lines, i, childIndent)
}

// parseSequence consumes `- ...` entries at exactly the given indent.
func parseSequence(lines []line, i, indent int) (*Node, int, error) {
	node := &Node{Kind: SeqNode, Line: lines[i].n}
	for i < len(lines) {
		ln := lines[i]
		if ln.indent < indent {
			return node, i, nil
		}
		if ln.indent > indent {
			return nil, i, fmt.Errorf("yaml: line %d: unexpected indent (want %d spaces, have %d)", ln.n, indent, ln.indent)
		}
		if !isDashItem(ln.text) {
			return nil, i, fmt.Errorf("yaml: line %d: expected a `- ` sequence entry, have %q", ln.n, ln.text)
		}
		content := strings.TrimPrefix(ln.text, "-")
		trimmed := strings.TrimLeft(content, " ")
		var item *Node
		var err error
		switch {
		case trimmed == "":
			// `-` alone: the item is the nested block on following lines.
			item, i, err = parseValueBlock(lines, i+1, indent, ln.n)
			if err != nil {
				return nil, i, err
			}
		case hasKey(trimmed):
			// `- key: value`: the item is a mapping whose first entry sits
			// on the dash line. Rewrite the line as that entry (at the
			// content's own column) and parse a mapping from here; the
			// item's remaining keys continue at the same column.
			contentIndent := ln.indent + (len(ln.text) - len(trimmed))
			rewritten := make([]line, len(lines))
			copy(rewritten, lines)
			rewritten[i] = line{n: ln.n, indent: contentIndent, text: trimmed}
			item, i, err = parseMapping(rewritten, i, contentIndent)
			if err != nil {
				return nil, i, err
			}
			// Continue scanning the original lines (identical beyond i).
		default:
			item = &Node{Kind: ScalarNode, Line: ln.n, Value: unquote(trimmed)}
			i++
		}
		node.Items = append(node.Items, item)
	}
	return node, i, nil
}

// hasKey reports whether the text starts a `key: ...` entry.
func hasKey(text string) bool {
	_, _, ok := splitKey(text)
	return ok
}
