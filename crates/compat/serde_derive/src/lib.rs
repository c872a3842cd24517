//! Derive macros for the vendored `serde` substitute.
//!
//! Implemented without `syn`/`quote` (unavailable offline): the input item is
//! parsed with a small hand-rolled cursor over [`proc_macro::TokenTree`]s and
//! the generated impl is assembled as a source string. Supported shapes are
//! exactly the ones this workspace uses:
//!
//! * structs with named fields (optionally generic, bounds copied verbatim),
//! * tuple structs (single-field ones serialize transparently, like serde
//!   newtypes),
//! * enums with unit and/or struct variants (externally tagged),
//! * the `#[serde(skip)]`, `#[serde(default)]`, `#[serde(with = "module")]`
//!   and `#[serde(skip_serializing_if = "path")]` field attributes (`default`
//!   fills a missing map key from `Default::default()` instead of erroring,
//!   so persisted documents written before a field existed keep
//!   deserializing; `skip_serializing_if` leaves the key out of the map when
//!   `path(&self.field)` is true — pair it with `default` so the omitted key
//!   reads back).

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Mode {
    Serialize,
    Deserialize,
}

/// Derives the vendored `serde::Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

/// Derives the vendored `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

struct Field {
    name: String,
    attrs: FieldAttrs,
}

/// What the `#[serde(...)]` attributes in front of a field asked for.
#[derive(Default)]
struct FieldAttrs {
    skip: bool,
    default: bool,
    with: Option<String>,
    /// Predicate path of `skip_serializing_if`; an empty string records the
    /// attribute written without `= "path"`, reported once the field's name
    /// is known.
    skip_serializing_if: Option<String>,
}

enum VariantFields {
    Unit,
    Named(Vec<Field>),
    Tuple(usize),
}

struct Variant {
    name: String,
    fields: VariantFields,
}

enum Data {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    /// Generic parameter list as written, without the angle brackets
    /// (e.g. `T: Serialize`); empty for non-generic items.
    generics_decl: String,
    /// Bare parameter names for the `for Name<...>` position.
    generics_use: String,
    data: Data,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let parsed = parse_input(input);
    let code = match mode {
        Mode::Serialize => gen_serialize(&parsed),
        Mode::Deserialize => gen_deserialize(&parsed),
    };
    code.parse().expect("serde_derive generated invalid Rust")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            tokens: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == c)
    }

    fn is_ident(&self, s: &str) -> bool {
        matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == s)
    }

    fn expect_ident(&mut self) -> String {
        match self.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("serde_derive: expected identifier, found {other:?}"),
        }
    }

    /// Skips `#[...]` attributes, recording what any `#[serde(...)]`
    /// attribute among them asks for.
    fn skip_attrs(&mut self) -> FieldAttrs {
        let mut attrs = FieldAttrs::default();
        while self.is_punct('#') {
            self.next();
            let group = match self.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => g,
                other => panic!("serde_derive: malformed attribute, found {other:?}"),
            };
            let inner: Vec<TokenTree> = group.stream().into_iter().collect();
            if matches!(inner.first(), Some(TokenTree::Ident(i)) if i.to_string() == "serde") {
                if let Some(TokenTree::Group(args)) = inner.get(1) {
                    let args: Vec<TokenTree> = args.stream().into_iter().collect();
                    let mut i = 0;
                    while i < args.len() {
                        // The string literal of a `key = "value"` argument.
                        let value = || match args.get(i + 2) {
                            Some(TokenTree::Literal(lit)) => {
                                Some(lit.to_string().trim_matches('"').to_string())
                            }
                            _ => None,
                        };
                        match &args[i] {
                            TokenTree::Ident(id) if id.to_string() == "skip" => attrs.skip = true,
                            TokenTree::Ident(id) if id.to_string() == "default" => {
                                attrs.default = true
                            }
                            TokenTree::Ident(id) if id.to_string() == "with" => {
                                if let Some(path) = value() {
                                    attrs.with = Some(path);
                                    i += 2;
                                }
                            }
                            TokenTree::Ident(id) if id.to_string() == "skip_serializing_if" => {
                                let path = value();
                                i += if path.is_some() { 2 } else { 0 };
                                attrs.skip_serializing_if = Some(path.unwrap_or_default());
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
            }
        }
        attrs
    }

    /// Skips `pub` / `pub(...)` visibility modifiers.
    fn skip_vis(&mut self) {
        if self.is_ident("pub") {
            self.next();
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.next();
            }
        }
    }

    /// Consumes a `<...>` generic parameter list (cursor sits on `<`).
    fn read_generics(&mut self) -> String {
        let mut depth = 0usize;
        let mut out = String::new();
        loop {
            let t = self.next().expect("serde_derive: unbalanced generics");
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => {
                        depth += 1;
                        if depth == 1 {
                            continue;
                        }
                    }
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            return out;
                        }
                    }
                    _ => {}
                }
            }
            out.push_str(&t.to_string());
            out.push(' ');
        }
    }

    /// Consumes tokens of a type until a top-level `,` (not consumed) or the
    /// end of the stream.
    fn skip_type(&mut self) {
        let mut angle = 0isize;
        while let Some(t) = self.peek() {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    ',' if angle == 0 => return,
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    _ => {}
                }
            }
            self.next();
        }
    }
}

fn parse_input(input: TokenStream) -> Input {
    let mut c = Cursor::new(input);
    c.skip_attrs();
    c.skip_vis();
    let kind = c.expect_ident();
    let name = c.expect_ident();
    let (generics_decl, generics_use) = if c.is_punct('<') {
        let raw = c.read_generics();
        let params = raw
            .split(',')
            .filter_map(|chunk| {
                chunk
                    .split(':')
                    .next()
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
            })
            .collect::<Vec<_>>()
            .join(", ");
        (raw, params)
    } else {
        (String::new(), String::new())
    };

    let data = match kind.as_str() {
        "struct" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Data::TupleStruct(count_tuple_fields(g.stream()))
            }
            other => panic!("serde_derive: unsupported struct shape: {other:?}"),
        },
        "enum" => match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive: malformed enum: {other:?}"),
        },
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    };

    Input {
        name,
        generics_decl,
        generics_use,
        data,
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut c = Cursor::new(stream);
    let mut fields = Vec::new();
    while !c.at_end() {
        let attrs = c.skip_attrs();
        c.skip_vis();
        let name = c.expect_ident();
        assert!(
            c.is_punct(':'),
            "serde_derive: expected `:` after field `{name}`"
        );
        assert!(
            attrs.skip_serializing_if.as_deref() != Some(""),
            "serde_derive: `skip_serializing_if` on field `{name}` needs `= \"path\"`"
        );
        c.next();
        c.skip_type();
        if c.is_punct(',') {
            c.next();
        }
        fields.push(Field { name, attrs });
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut c = Cursor::new(stream);
    let mut count = 0usize;
    while !c.at_end() {
        c.skip_attrs();
        c.skip_vis();
        c.skip_type();
        count += 1;
        if c.is_punct(',') {
            c.next();
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut c = Cursor::new(stream);
    let mut variants = Vec::new();
    while !c.at_end() {
        c.skip_attrs();
        let name = c.expect_ident();
        let fields = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                c.next();
                VariantFields::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let count = count_tuple_fields(g.stream());
                c.next();
                VariantFields::Tuple(count)
            }
            _ => VariantFields::Unit,
        };
        if c.is_punct(',') {
            c.next();
        }
        variants.push(Variant { name, fields });
    }
    variants
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn impl_header(input: &Input, trait_name: &str) -> String {
    let Input {
        name,
        generics_decl,
        generics_use,
        ..
    } = input;
    if generics_decl.is_empty() {
        format!("impl ::serde::{trait_name} for {name}")
    } else {
        format!("impl<{generics_decl}> ::serde::{trait_name} for {name}<{generics_use}>")
    }
}

/// The statements writing `fields` into the open map `__map`, in declaration
/// order, each under its ready-made `"name":` literal. `access` turns a field
/// name into a reference to its value: `"&self."` in a struct, `""` for the
/// by-reference bindings of an enum variant pattern.
fn named_field_writes(fields: &[Field], access: &str) -> String {
    let mut writes = String::new();
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        let fname = &f.name;
        let slot = format!("__map.key(\"\\\"{fname}\\\":\")");
        let write = match &f.attrs.with {
            Some(path) => format!("{path}::serialize({access}{fname}, {slot});"),
            None => format!("::serde::Serialize::write_json({access}{fname}, {slot});"),
        };
        match &f.attrs.skip_serializing_if {
            Some(predicate) => {
                writes.push_str(&format!("if !{predicate}({access}{fname}) {{ {write} }}\n"));
            }
            None => writes.push_str(&format!("{write}\n")),
        }
    }
    writes
}

/// The statements writing `values` (expressions yielding references) as the
/// elements of a sequence.
fn seq_writes(values: impl Iterator<Item = String>) -> String {
    let elements: String = values
        .map(|value| format!("::serde::Serialize::write_json({value}, __seq.element());\n"))
        .collect();
    format!("let mut __seq = __w.seq();\n{elements}__seq.end();")
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let header = impl_header(input, "Serialize");
    let body = match &input.data {
        Data::NamedStruct(fields) => {
            let writes = named_field_writes(fields, "&self.");
            format!("let mut __map = __w.map();\n{writes}__map.end();")
        }
        Data::TupleStruct(1) => "::serde::Serialize::write_json(&self.0, __w);".to_string(),
        Data::TupleStruct(n) => seq_writes((0..*n).map(|i| format!("&self.{i}"))),
        Data::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                // Externally tagged: `{"Variant": <payload>}`.
                let tag = format!(
                    "let mut __tag = __w.map();\nlet __w = __tag.key(\"\\\"{vname}\\\":\");"
                );
                match &v.fields {
                    VariantFields::Unit => arms.push_str(&format!(
                        "{name}::{vname} => __w.raw(\"\\\"{vname}\\\"\"),\n"
                    )),
                    VariantFields::Named(fields) => {
                        let pattern: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                if f.attrs.skip {
                                    format!("{}: _", f.name)
                                } else {
                                    f.name.clone()
                                }
                            })
                            .collect();
                        let writes = named_field_writes(fields, "");
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {} }} => {{\n{tag}\n\
                             let mut __map = __w.map();\n{writes}__map.end();\n__tag.end();\n}}\n",
                            pattern.join(", ")
                        ));
                    }
                    VariantFields::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("__v{i}")).collect();
                        let inner = if *n == 1 {
                            "::serde::Serialize::write_json(__v0, __w);".to_string()
                        } else {
                            seq_writes(binders.iter().cloned())
                        };
                        arms.push_str(&format!(
                            "{name}::{vname}({}) => {{\n{tag}\n{inner}\n__tag.end();\n}}\n",
                            binders.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n#[allow(unused_variables, clippy::all)]\n\
         {header} {{\nfn write_json(&self, __w: &mut ::serde::Writer<'_>) {{\n{body}\n}}\n}}\n"
    )
}

/// Code reading a JSON object into the fields of a struct (or struct
/// variant) from the `&mut Reader` expression `reader`: the statements that
/// read every key into one local per field, and the struct-literal fields
/// built from those locals. A key's first occurrence fills its field and a
/// repeat or an unknown key is skipped; a missing field is an error unless
/// `#[serde(default)]` (or `skip`) supplies `Default::default()`.
fn named_field_reads(fields: &[Field], reader: &str) -> (String, String) {
    let mut locals = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, f) in fields.iter().enumerate() {
        let fname = &f.name;
        if f.attrs.skip {
            inits.push_str(&format!("{fname}: ::std::default::Default::default(),\n"));
            continue;
        }
        let local = format!("__f{i}");
        locals.push_str(&format!("let mut {local} = ::std::option::Option::None;\n"));
        let read = match &f.attrs.with {
            Some(path) => format!("{path}::deserialize(__entries.value())?"),
            None => "::serde::Deserialize::deserialize(__entries.value())?".to_string(),
        };
        arms.push_str(&format!(
            "\"{fname}\" if ::std::option::Option::is_none(&{local}) => \
             {{ {local} = ::std::option::Option::Some({read}); }}\n"
        ));
        let missing = if f.attrs.default {
            "::std::default::Default::default()".to_string()
        } else {
            format!(
                "return ::std::result::Result::Err(\
                 ::serde::Error::custom(\"missing field `{fname}`\"))"
            )
        };
        inits.push_str(&format!(
            "{fname}: match {local} {{ ::std::option::Option::Some(__v) => __v, \
             ::std::option::Option::None => {missing} }},\n"
        ));
    }
    let reads = format!(
        "let mut __entries = ::serde::Reader::map({reader})?;\n{locals}\
         while let ::std::option::Option::Some(__key) = __entries.key()? {{\n\
         match &*__key {{\n{arms}_ => {{ __entries.value().skip()?; }}\n}}\n}}\n"
    );
    (reads, inits)
}

/// An expression reading a JSON array of exactly `n` elements from the
/// `&mut Reader` expression `reader` into `ctor(element, …)`.
fn tuple_read(n: usize, reader: &str, ctor: &str, what: &str) -> String {
    let arity = format!(
        "return ::std::result::Result::Err(::serde::Error::custom(\"wrong arity for {what}\"))"
    );
    let items: Vec<String> = (0..n)
        .map(|_| {
            format!(
                "match __elements.element()? {{ \
                 ::std::option::Option::Some(__e) => ::serde::Deserialize::deserialize(__e)?, \
                 ::std::option::Option::None => {arity} }}"
            )
        })
        .collect();
    format!(
        "{{ let mut __elements = ::serde::Reader::seq({reader})?;\n\
         let __value = {ctor}({});\n\
         if __elements.element()?.is_some() {{ {arity} }}\n__value }}",
        items.join(",\n")
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let header = impl_header(input, "Deserialize");
    let body = match &input.data {
        Data::NamedStruct(fields) => {
            let (reads, inits) = named_field_reads(fields, "__r");
            format!("{reads}::std::result::Result::Ok(Self {{\n{inits}}})")
        }
        Data::TupleStruct(1) => {
            "::std::result::Result::Ok(Self(::serde::Deserialize::deserialize(__r)?))".to_string()
        }
        Data::TupleStruct(n) => format!(
            "::std::result::Result::Ok({})",
            tuple_read(*n, "__r", "Self", &format!("`{name}`"))
        ),
        Data::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vname = &v.name;
                match &v.fields {
                    VariantFields::Unit => unit_arms.push_str(&format!(
                        "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                    )),
                    VariantFields::Named(fields) => {
                        let (reads, inits) = named_field_reads(fields, "__r");
                        tagged_arms.push_str(&format!(
                            "\"{vname}\" => {{\n{reads}{name}::{vname} {{\n{inits}}}\n}}\n"
                        ));
                    }
                    VariantFields::Tuple(1) => tagged_arms.push_str(&format!(
                        "\"{vname}\" => {name}::{vname}(::serde::Deserialize::deserialize(__r)?),\n"
                    )),
                    VariantFields::Tuple(n) => tagged_arms.push_str(&format!(
                        "\"{vname}\" => {},\n",
                        tuple_read(
                            *n,
                            "__r",
                            &format!("{name}::{vname}"),
                            &format!("variant `{vname}`")
                        )
                    )),
                }
            }
            // Externally tagged: a unit variant is its quoted name, any other
            // a one-entry object `{"Variant": <payload>}`.
            let invalid = format!(
                "::std::result::Result::Err(::serde::Error::custom(\
                 \"invalid value for enum `{name}`\"))"
            );
            let unknown = format!(
                "::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown variant `{{}}` of `{name}`\", __other)))"
            );
            format!(
                "match ::serde::Reader::peek(__r)? {{\n\
                 b'\"' => {{\n\
                 let __variant = ::serde::Reader::str(__r)?;\n\
                 match &*__variant {{\n{unit_arms}__other => {unknown},\n}}\n}}\n\
                 b'{{' => {{\n\
                 let mut __tag = ::serde::Reader::map(__r)?;\n\
                 let __variant = match __tag.key()? {{\n\
                 ::std::option::Option::Some(__variant) => __variant,\n\
                 ::std::option::Option::None => return {invalid},\n}};\n\
                 let __r = __tag.value();\n\
                 let __value = match &*__variant {{\n{tagged_arms}__other => return {unknown},\n}};\n\
                 match __tag.key()? {{\n\
                 ::std::option::Option::None => ::std::result::Result::Ok(__value),\n\
                 ::std::option::Option::Some(_) => {invalid},\n}}\n}}\n\
                 _ => {invalid},\n}}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n#[allow(unused_variables, unused_mut, unreachable_code, clippy::all)]\n\
         {header} {{\nfn deserialize(__r: &mut ::serde::Reader<'_>) -> \
         ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}\n"
    )
}
