package analyzers

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"reflect"
	"strings"
)

// WiretagsConfig parameterizes the wiretags analyzer.
type WiretagsConfig struct {
	// WirePkgSuffixes selects the packages whose exported structs are
	// wire structs (matched against the import path).
	WirePkgSuffixes []string

	// DocFiles are the protocol documents, relative to the module root.
	// Every wire field's json name must appear in at least one of them.
	// Empty skips the doc check.
	DocFiles []string
}

// DefaultWiretagsConfig returns the repository configuration: wire
// structs live in internal/fleet, internal/fleet/codec,
// internal/cluster and internal/triage; schemas are specified in
// docs/PROTOCOL.md, and the /v1/status reply fields in the
// docs/OPERATIONS.md field reference PROTOCOL.md points at.
func DefaultWiretagsConfig() WiretagsConfig {
	return WiretagsConfig{
		WirePkgSuffixes: []string{"internal/fleet", "internal/fleet/codec", "internal/cluster", "internal/triage"},
		DocFiles: []string{
			filepath.Join("docs", "PROTOCOL.md"),
			filepath.Join("docs", "OPERATIONS.md"),
		},
	}
}

// Wiretags builds the analyzer: every exported field of a wire struct
// (an exported struct type, in a wire package, with at least one json
// tag) must carry an explicit json tag; names must be unique within the
// struct and — `json:"-"` aside — documented in the protocol spec, so
// the wire format cannot drift from docs/PROTOCOL.md silently. (The
// binary v2 frames are positional; their layouts are pinned by the
// golden frames under internal/fleet/testdata, not by tags.)
func Wiretags(cfg WiretagsConfig) *Analyzer {
	return &Analyzer{
		Name: "wiretags",
		Doc:  "check wire-struct json tags: explicit, unique, documented in the protocol spec",
		Run: func(pass *Pass) []Diagnostic {
			var doc string
			docLoaded := false
			if pass.ModRoot != "" {
				for _, df := range cfg.DocFiles {
					if b, err := pass.readFile(filepath.Join(pass.ModRoot, df)); err == nil {
						doc += string(b)
						docLoaded = true
					}
				}
			}

			var out []Diagnostic
			for _, pkg := range pass.Pkgs {
				if !suffixMatch(pkg.Path, cfg.WirePkgSuffixes) {
					continue
				}
				for _, f := range pkg.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						ts, ok := n.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() {
							return true
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							return true
						}
						out = append(out, checkWireStruct(pass, pkg, ts.Name.Name, st, doc, docLoaded, cfg)...)
						return true
					})
				}
			}
			return out
		},
	}
}

func suffixMatch(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

func checkWireStruct(pass *Pass, pkg *Package, typeName string, st *ast.StructType, doc string, docLoaded bool, cfg WiretagsConfig) []Diagnostic {
	// A struct qualifies as a wire struct when any field carries a
	// json tag; plain config/state structs stay out of scope.
	isWire := false
	for _, f := range st.Fields.List {
		if _, ok := jsonTag(f); ok {
			isWire = true
			break
		}
	}
	if !isWire {
		return nil
	}

	var out []Diagnostic
	seen := make(map[string]*ast.Field)
	for _, f := range st.Fields.List {
		name, hasTag := jsonTag(f)

		// Identify the exported field names this entry declares.
		var exported []string
		if len(f.Names) == 0 {
			// Embedded field: name is the type's base name.
			if id := embeddedName(f.Type); id != nil && id.IsExported() {
				exported = append(exported, id.Name)
			}
		} else {
			for _, id := range f.Names {
				if id.IsExported() {
					exported = append(exported, id.Name)
				}
			}
		}
		if len(exported) == 0 {
			continue // unexported fields never marshal
		}

		if !hasTag {
			if len(f.Names) == 0 {
				// Embedded struct: its fields promote inline and are
				// checked on their own type; a json tag here would
				// un-inline them.
				continue
			}
			out = append(out, Diagnostic{
				Pos: f.Pos(),
				Message: fmt.Sprintf("wire struct %s.%s: exported field %s has no explicit json tag",
					pkg.Types.Name(), typeName, strings.Join(exported, ", ")),
			})
			continue
		}
		if name == "" {
			out = append(out, Diagnostic{
				Pos: f.Pos(),
				Message: fmt.Sprintf("wire struct %s.%s: field %s has a json tag with an empty name (field name would be used implicitly)",
					pkg.Types.Name(), typeName, strings.Join(exported, ", ")),
			})
			continue
		}
		if name == "-" {
			continue // explicitly excluded from the wire format
		}
		if prev, dup := seen[name]; dup {
			out = append(out, Diagnostic{
				Pos: f.Pos(),
				Message: fmt.Sprintf("wire struct %s.%s: duplicate json tag %q (also on field at %s)",
					pkg.Types.Name(), typeName, name, pass.Fset.Position(prev.Pos())),
			})
			continue
		}
		seen[name] = f
		if docLoaded && !docHasName(doc, name) {
			out = append(out, Diagnostic{
				Pos: f.Pos(),
				Message: fmt.Sprintf("wire struct %s.%s: json field %q is not documented in %s",
					pkg.Types.Name(), typeName, name, strings.Join(cfg.DocFiles, " or ")),
			})
		}
	}
	return out
}

// jsonTag extracts the json tag name from a field, reporting whether a
// json tag is present at all.
func jsonTag(f *ast.Field) (name string, ok bool) {
	if f.Tag == nil {
		return "", false
	}
	raw := strings.Trim(f.Tag.Value, "`")
	tag, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		return "", false
	}
	name, _, _ = strings.Cut(tag, ",")
	return name, true
}

func embeddedName(t ast.Expr) *ast.Ident {
	switch t := t.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}

// docHasName reports whether the protocol doc mentions the field name:
// backticked (`name`), backticked as an array (`name[]`), or as a JSON
// key ("name").
func docHasName(doc, name string) bool {
	return strings.Contains(doc, "`"+name+"`") ||
		strings.Contains(doc, "`"+name+"[]`") ||
		strings.Contains(doc, `"`+name+`"`)
}
