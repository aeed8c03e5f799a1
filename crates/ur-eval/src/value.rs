//! Runtime values of the Ur interpreter.
//!
//! The interpreter is *type-passing*: constructor abstractions are real
//! closures and constructor arguments are carried at runtime, so that
//! first-class names (`e.nm` under a name variable) resolve to concrete
//! field names. (The real Ur/Web compiler instead erases all polymorphism
//! by whole-program monomorphization, §5 — a performance technique we
//! substitute with interpretation; see DESIGN.md.)

use crate::error::{EvalError, EvalErrorKind};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::mem::take;
use std::rc::Rc;
use ur_core::con::RCon;
use ur_core::expr::RExpr;
use ur_core::sym::Sym;
use ur_db::{ColTy, SqlExpr};

/// Runtime environments: value and constructor bindings. Cloned on
/// closure capture.
#[derive(Clone, Debug, Default)]
pub struct VEnv {
    pub vals: HashMap<Sym, Value>,
    pub cons: HashMap<Sym, RCon>,
}

impl VEnv {
    pub fn new() -> VEnv {
        VEnv::default()
    }

    pub fn with_val(&self, x: Sym, v: Value) -> VEnv {
        let mut out = self.clone();
        out.vals.insert(x, v);
        out
    }

    pub fn with_con(&self, a: Sym, c: RCon) -> VEnv {
        let mut out = self.clone();
        out.cons.insert(a, c);
        out
    }
}

/// A value-level closure `fn x : t => e`.
#[derive(Clone, Debug)]
pub struct Closure {
    pub env: VEnv,
    pub param: Sym,
    pub body: RExpr,
}

/// A constructor-level closure `fn [a :: k] => e`.
#[derive(Clone, Debug)]
pub struct CClosure {
    pub env: VEnv,
    pub param: Sym,
    pub body: RExpr,
}

/// A suspended guard abstraction `fn [c1 ~ c2] => e`, forced by `!`.
#[derive(Clone, Debug)]
pub struct DSusp {
    pub env: VEnv,
    pub body: RExpr,
}

impl Drop for Closure {
    fn drop(&mut self) {
        drop_flat(self.env.vals.drain().map(|(_, v)| v));
    }
}

impl Drop for CClosure {
    fn drop(&mut self) {
        drop_flat(self.env.vals.drain().map(|(_, v)| v));
    }
}

impl Drop for DSusp {
    fn drop(&mut self) {
        drop_flat(self.env.vals.drain().map(|(_, v)| v));
    }
}

/// Drops values without recursing through the closures they own: a
/// closure that holds the last reference to another closure hands that
/// one's captured values to this loop, so the nested closure drops with
/// nothing left to drop. An evaluation can build closure chains far
/// longer than its depth budget (`twice twice twice twice twice inc 0`
/// does before the budget stops it), and dropping such a chain
/// recursively would overflow the stack.
pub(crate) fn drop_flat(vals: impl Iterator<Item = Value>) {
    let mut stack: Vec<Value> = vals.filter(Value::owns_closure).collect();
    while let Some(v) = stack.pop() {
        let env = match v {
            Value::Closure(rc) => Rc::try_unwrap(rc).ok().map(|mut c| take(&mut c.env.vals)),
            Value::CClosure(rc) => Rc::try_unwrap(rc).ok().map(|mut c| take(&mut c.env.vals)),
            Value::DSusp(rc) => Rc::try_unwrap(rc).ok().map(|mut c| take(&mut c.env.vals)),
            Value::VmClosure(rc) | Value::VmCClosure(rc) | Value::VmDSusp(rc) => {
                if let Ok(mut f) = Rc::try_unwrap(rc) {
                    stack.extend(f.take_captured().filter(Value::owns_closure));
                }
                None
            }
            _ => None,
        };
        let captured = env.into_iter().flat_map(HashMap::into_values);
        stack.extend(captured.filter(Value::owns_closure));
    }
}

/// A library primitive: `arity` counts *value* arguments and `con_arity`
/// counts constructor arguments; the implementation runs once both are
/// saturated (guard applications `!` are erased).
pub struct Builtin {
    pub name: String,
    pub con_arity: usize,
    pub arity: usize,
    #[allow(clippy::type_complexity)]
    pub run: Rc<
        dyn Fn(&mut crate::interp::Interp<'_>, &[RCon], &[Value]) -> Result<Value, EvalError>,
    >,
}

impl fmt::Debug for Builtin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<builtin {} / {}>", self.name, self.arity)
    }
}

/// A (possibly partially applied) builtin.
#[derive(Clone, Debug)]
pub struct BuiltinApp {
    pub spec: Rc<Builtin>,
    pub cons: Vec<RCon>,
    pub args: Vec<Value>,
}

/// A document tree — the runtime form of the typed `xml ctx` family.
/// Strings enter only through `Text`, which is escaped at render time, so
/// a constructed tree can never inject markup.
#[derive(Clone, Debug, PartialEq)]
pub enum XmlVal {
    /// The empty document.
    Empty,
    /// Raw text, escaped when rendered.
    Text(String),
    /// An element with attributes and children.
    Tag {
        name: String,
        attrs: Vec<(String, String)>,
        children: Vec<XmlVal>,
    },
    /// Concatenation.
    Seq(Vec<XmlVal>),
}

impl XmlVal {
    /// Renders to HTML text with all text nodes and attribute values
    /// escaped.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            XmlVal::Empty => {}
            XmlVal::Text(t) => out.push_str(&escape_text(t)),
            XmlVal::Tag {
                name,
                attrs,
                children,
            } => {
                out.push('<');
                out.push_str(name);
                for (k, v) in attrs {
                    out.push(' ');
                    out.push_str(k);
                    out.push_str("=\"");
                    out.push_str(&escape_attr(v));
                    out.push('"');
                }
                out.push('>');
                for c in children {
                    c.render_into(out);
                }
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
            XmlVal::Seq(items) => {
                for i in items {
                    i.render_into(out);
                }
            }
        }
    }
}

/// Escapes character data.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes attribute values (additionally quotes).
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            other => out.push(other),
        }
    }
    out
}

/// A runtime value.
#[derive(Clone, Debug)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(Rc<str>),
    Bool(bool),
    Unit,
    /// A record; field names are concrete at runtime. The map is
    /// behind an `Rc` so pushing, capturing, or passing a record is a
    /// reference bump, not a deep clone — only the record *operations*
    /// (`++`, `--`) copy, and only when the map is shared.
    Record(Rc<BTreeMap<Rc<str>, Value>>),
    Closure(Rc<Closure>),
    CClosure(Rc<CClosure>),
    DSusp(Rc<DSusp>),
    /// A compiled closure `fn x : t => e` (see `crate::vm`). Displays
    /// like [`Value::Closure`]; the two engines' results stay
    /// observationally identical.
    VmClosure(Rc<crate::vm::VmFn>),
    /// A compiled constructor closure `fn [a :: k] => e`.
    VmCClosure(Rc<crate::vm::VmFn>),
    /// A compiled suspended guard abstraction, forced by `!`.
    VmDSusp(Rc<crate::vm::VmFn>),
    Builtin(Rc<BuiltinApp>),
    /// A homogeneous list (`list t`).
    List(Rc<Vec<Value>>),
    /// An optional value (`option t`).
    Opt(Option<Rc<Value>>),
    /// A typed document tree (`xml ctx`).
    Xml(Rc<XmlVal>),
    /// A SQL expression (`sql_exp r t`).
    SqlExp(Rc<SqlExpr>),
    /// A handle to a database table (`sql_table r`).
    SqlTable(Rc<str>),
    /// A column-type witness (`sql_type t`).
    SqlType(ColTy),
}

impl Value {
    pub fn str(s: impl Into<Rc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// True for a closure this value holds the last reference to: one
    /// that dropping this value drops (see [`drop_flat`]).
    fn owns_closure(&self) -> bool {
        match self {
            Value::Closure(rc) => Rc::strong_count(rc) == 1,
            Value::CClosure(rc) => Rc::strong_count(rc) == 1,
            Value::DSusp(rc) => Rc::strong_count(rc) == 1,
            Value::VmClosure(rc) | Value::VmCClosure(rc) | Value::VmDSusp(rc) => {
                Rc::strong_count(rc) == 1
            }
            _ => false,
        }
    }

    /// Extracts an `i64`, or errors.
    pub fn as_int(&self) -> Result<i64, EvalError> {
        match self {
            Value::Int(n) => Ok(*n),
            other => Err(Value::mismatch("int", other)),
        }
    }

    pub fn as_float(&self) -> Result<f64, EvalError> {
        match self {
            Value::Float(x) => Ok(*x),
            other => Err(Value::mismatch("float", other)),
        }
    }

    pub fn as_str(&self) -> Result<Rc<str>, EvalError> {
        match self {
            Value::Str(s) => Ok(Rc::clone(s)),
            other => Err(Value::mismatch("string", other)),
        }
    }

    pub fn as_bool(&self) -> Result<bool, EvalError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Value::mismatch("bool", other)),
        }
    }

    pub fn as_record(&self) -> Result<&BTreeMap<Rc<str>, Value>, EvalError> {
        match self {
            Value::Record(r) => Ok(&**r),
            other => Err(Value::mismatch("record", other)),
        }
    }

    /// Builds a record value from an owned field map.
    pub fn record(map: BTreeMap<Rc<str>, Value>) -> Value {
        Value::Record(Rc::new(map))
    }

    pub fn as_list(&self) -> Result<&[Value], EvalError> {
        match self {
            Value::List(l) => Ok(l),
            other => Err(Value::mismatch("list", other)),
        }
    }

    pub fn as_xml(&self) -> Result<&XmlVal, EvalError> {
        match self {
            Value::Xml(x) => Ok(x),
            other => Err(Value::mismatch("xml", other)),
        }
    }

    pub fn as_sql_exp(&self) -> Result<&SqlExpr, EvalError> {
        match self {
            Value::SqlExp(e) => Ok(e),
            other => Err(Value::mismatch("SQL expression", other)),
        }
    }

    fn mismatch(wanted: &str, got: &Value) -> EvalError {
        EvalError::of_kind(
            EvalErrorKind::TypeMismatch,
            format!("expected {wanted}, got {got}"),
        )
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{}", if *b { "True" } else { "False" }),
            Value::Unit => write!(f, "()"),
            Value::Record(r) => {
                write!(f, "{{")?;
                for (i, (k, v)) in r.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} = {v}")?;
                }
                write!(f, "}}")
            }
            Value::Closure(_) | Value::VmClosure(_) => write!(f, "<fn>"),
            Value::CClosure(_) | Value::VmCClosure(_) => write!(f, "<polyfn>"),
            Value::DSusp(_) | Value::VmDSusp(_) => write!(f, "<guarded>"),
            Value::Builtin(b) => write!(f, "<builtin {}>", b.spec.name),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Opt(None) => write!(f, "None"),
            Value::Opt(Some(v)) => write!(f, "Some {v}"),
            Value::Xml(x) => write!(f, "{}", x.render()),
            Value::SqlExp(e) => write!(f, "{e}"),
            Value::SqlTable(t) => write!(f, "<table {t}>"),
            Value::SqlType(t) => write!(f, "<sql_type {t}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_text() {
        assert_eq!(
            escape_text("<script>alert('x') & more</script>"),
            "&lt;script&gt;alert('x') &amp; more&lt;/script&gt;"
        );
    }

    #[test]
    fn escaping_attrs() {
        assert_eq!(escape_attr("a\"b'c"), "a&quot;b&#39;c");
    }

    #[test]
    fn xml_render_escapes_nested_text() {
        let x = XmlVal::Tag {
            name: "td".into(),
            attrs: vec![],
            children: vec![XmlVal::Text("<b>bold?</b>".into())],
        };
        assert_eq!(x.render(), "<td>&lt;b&gt;bold?&lt;/b&gt;</td>");
    }

    #[test]
    fn xml_render_attrs() {
        let x = XmlVal::Tag {
            name: "input".into(),
            attrs: vec![("name".into(), "a\"b".into())],
            children: vec![],
        };
        assert_eq!(x.render(), "<input name=\"a&quot;b\"></input>");
    }

    #[test]
    fn xml_seq_and_empty() {
        let x = XmlVal::Seq(vec![
            XmlVal::Text("a".into()),
            XmlVal::Empty,
            XmlVal::Text("b".into()),
        ]);
        assert_eq!(x.render(), "ab");
    }

    #[test]
    fn value_display() {
        let mut r = BTreeMap::new();
        r.insert(Rc::from("A"), Value::Int(1));
        assert_eq!(Value::record(r).to_string(), "{A = 1}");
        assert_eq!(Value::List(Rc::new(vec![Value::Int(1)])).to_string(), "[1]");
        assert_eq!(Value::Opt(None).to_string(), "None");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert!(Value::Int(3).as_str().is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
    }

    #[test]
    fn accessor_errors_are_type_mismatches() {
        use crate::error::EvalErrorKind;
        assert_eq!(Value::Unit.as_int().unwrap_err().kind, EvalErrorKind::TypeMismatch);
        assert_eq!(Value::Int(1).as_float().unwrap_err().kind, EvalErrorKind::TypeMismatch);
        assert_eq!(Value::Int(1).as_str().unwrap_err().kind, EvalErrorKind::TypeMismatch);
        assert_eq!(Value::Int(1).as_bool().unwrap_err().kind, EvalErrorKind::TypeMismatch);
        assert_eq!(Value::Int(1).as_record().unwrap_err().kind, EvalErrorKind::TypeMismatch);
        assert_eq!(Value::Int(1).as_list().unwrap_err().kind, EvalErrorKind::TypeMismatch);
        assert_eq!(Value::Int(1).as_xml().unwrap_err().kind, EvalErrorKind::TypeMismatch);
        assert_eq!(Value::Int(1).as_sql_exp().unwrap_err().kind, EvalErrorKind::TypeMismatch);
    }

    #[test]
    fn display_covers_every_scalar_shape() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Float(1.5).to_string(), "1.5");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::Bool(false).to_string(), "False");
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Opt(Some(Rc::new(Value::Int(2)))).to_string(), "Some 2");
        assert_eq!(Value::SqlTable(Rc::from("t")).to_string(), "<table t>");
    }

    #[test]
    fn record_display_is_sorted_by_field_name() {
        // BTreeMap keys iterate sorted, so insertion order never leaks
        // into the rendered value — the invariant the differential
        // suites rely on when comparing engines by display.
        let mut r = BTreeMap::new();
        r.insert(Rc::from("B"), Value::Int(2));
        r.insert(Rc::from("A"), Value::Int(1));
        r.insert(Rc::from("C"), Value::Int(3));
        assert_eq!(Value::record(r).to_string(), "{A = 1, B = 2, C = 3}");
    }

    #[test]
    fn record_accessor_returns_ordered_map() {
        let mut r = BTreeMap::new();
        r.insert(Rc::from("Z"), Value::Int(26));
        r.insert(Rc::from("A"), Value::Int(1));
        let v = Value::record(r);
        let keys: Vec<&str> = v.as_record().unwrap().keys().map(|k| k.as_ref()).collect();
        assert_eq!(keys, vec!["A", "Z"]);
    }

    #[test]
    fn nested_record_display() {
        let mut inner = BTreeMap::new();
        inner.insert(Rc::from("X"), Value::str("s"));
        let mut outer = BTreeMap::new();
        outer.insert(Rc::from("R"), Value::record(inner));
        outer.insert(Rc::from("N"), Value::Int(0));
        assert_eq!(Value::record(outer).to_string(), "{N = 0, R = {X = \"s\"}}");
    }
}
