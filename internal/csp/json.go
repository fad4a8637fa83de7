package csp

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// jsonInstance is the on-disk JSON schema for CSP instances:
//
//	{
//	  "variables":  [{"name": "x1", "domain": ["a", "b"]}, …],
//	  "constraints":[{"name": "C1", "scope": ["x1", "x2"],
//	                  "tuples": [["a", "b"], ["b", "a"]]}, …]
//	}
//
// Domain values are arbitrary strings; they are interned to dense ints per
// variable on load.
type jsonInstance struct {
	Variables   []jsonVariable   `json:"variables"`
	Constraints []jsonConstraint `json:"constraints"`
}

type jsonVariable struct {
	Name   string   `json:"name"`
	Domain []string `json:"domain"`
}

type jsonConstraint struct {
	Name   string     `json:"name"`
	Scope  []string   `json:"scope"`
	Tuples [][]string `json:"tuples"`
}

// ReadJSON parses a CSP instance from JSON. It returns the CSP (with
// int-coded values) and the per-variable value names for rendering
// solutions.
func ReadJSON(r io.Reader) (*CSP, [][]string, error) {
	var in jsonInstance
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, nil, fmt.Errorf("csp: %w", err)
	}
	if len(in.Variables) == 0 {
		return nil, nil, fmt.Errorf("csp: no variables")
	}
	c := &CSP{}
	valueNames := make([][]string, len(in.Variables))
	varIdx := map[string]int{}
	valIdx := make([]map[string]int, len(in.Variables))
	for i, v := range in.Variables {
		if v.Name == "" {
			return nil, nil, fmt.Errorf("csp: variable %d has no name", i)
		}
		if _, dup := varIdx[v.Name]; dup {
			return nil, nil, fmt.Errorf("csp: duplicate variable %s", v.Name)
		}
		if len(v.Domain) == 0 {
			return nil, nil, fmt.Errorf("csp: variable %s has empty domain", v.Name)
		}
		varIdx[v.Name] = i
		c.VarNames = append(c.VarNames, v.Name)
		dom := make([]int, len(v.Domain))
		valIdx[i] = map[string]int{}
		for j, val := range v.Domain {
			if _, dup := valIdx[i][val]; dup {
				return nil, nil, fmt.Errorf("csp: variable %s repeats domain value %q", v.Name, val)
			}
			valIdx[i][val] = j
			dom[j] = j
		}
		c.Domains = append(c.Domains, dom)
		valueNames[i] = append([]string(nil), v.Domain...)
	}
	for ci, con := range in.Constraints {
		name := con.Name
		if name == "" {
			name = fmt.Sprintf("c%d", ci)
		}
		scope := make([]int, len(con.Scope))
		for i, vn := range con.Scope {
			idx, ok := varIdx[vn]
			if !ok {
				return nil, nil, fmt.Errorf("csp: constraint %s references unknown variable %q", name, vn)
			}
			scope[i] = idx
		}
		rel := NewRelation(scope, nil)
		row := make([]int, len(scope))
		for _, t := range con.Tuples {
			if len(t) != len(scope) {
				return nil, nil, fmt.Errorf("csp: constraint %s tuple arity %d ≠ scope %d", name, len(t), len(scope))
			}
			for i, val := range t {
				idx, ok := valIdx[scope[i]][val]
				if !ok {
					return nil, nil, fmt.Errorf("csp: constraint %s uses value %q outside %s's domain",
						name, val, c.VarNames[scope[i]])
				}
				row[i] = idx
			}
			rel.AppendRow(row)
		}
		c.Constraints = append(c.Constraints, &Constraint{Name: name, Rel: rel})
	}
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	return c, valueNames, nil
}

// WriteJSON renders the CSP back to the JSON schema using the given value
// names.
func WriteJSON(w io.Writer, c *CSP, valueNames [][]string) error {
	out := jsonInstance{}
	for i, name := range c.VarNames {
		out.Variables = append(out.Variables, jsonVariable{Name: name, Domain: valueNames[i]})
	}
	for _, con := range c.Constraints {
		jc := jsonConstraint{Name: con.Name}
		for _, v := range con.Rel.Scope {
			jc.Scope = append(jc.Scope, c.VarNames[v])
		}
		for k := 0; k < con.Rel.Size(); k++ {
			t := con.Rel.Row(k)
			row := make([]string, len(t))
			for i, val := range t {
				row[i] = valueNames[con.Rel.Scope[i]][val]
			}
			jc.Tuples = append(jc.Tuples, row)
		}
		out.Constraints = append(out.Constraints, jc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// FormatSolution renders an assignment with the original value names, one
// "var = value" pair per line.
func FormatSolution(c *CSP, valueNames [][]string, assignment []int) string {
	var b strings.Builder
	for v, val := range assignment {
		fmt.Fprintf(&b, "%s = %s\n", c.VarNames[v], valueNames[v][val])
	}
	return b.String()
}
