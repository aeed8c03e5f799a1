//! Canonical row normalization — the computational heart of Ur.
//!
//! Definitional equality of rows (paper Figure 3) includes unit,
//! commutativity, and associativity of `++`, the defining equations of
//! `map`, and three algebraic laws:
//!
//! ```text
//! map (fn a => a) c            = c                       (identity)
//! map f (c1 ++ c2)             = map f c1 ++ map f c2    (distributivity)
//! map f (map g c)              = map (fn a => f (g a)) c (fusion)
//! ```
//!
//! We realize the whole equational theory by a *canonicalizing normalizer*:
//! every row denotes a multiset of literal fields, neutral-name fields, and
//! neutral row atoms each under at most one (fused) `map`. Commutativity
//! and associativity hold because the normal form is order-canonical;
//! the three laws above are applied as rewrites and counted in
//! [`crate::stats::Stats`], which is how we regenerate the paper's
//! Figure 5 columns.

use crate::arena::IStr;
use crate::con::{Con, MetaId, RCon};
use crate::env::Env;
use crate::hnf::hnf;
use crate::kind::Kind;
use crate::sym::Sym;
use crate::Cx;

/// The name position of a field in normal form: either a literal name
/// `#n` or a neutral constructor of kind `Name` (e.g. a bound variable
/// `nm`).
#[derive(Clone, Debug)]
pub enum FieldKey {
    Lit(IStr),
    Neutral(RCon),
}

impl FieldKey {
    /// A stable, unambiguous sorting key.
    pub fn canon(&self) -> String {
        match self {
            FieldKey::Lit(n) => format!("#{n}"),
            FieldKey::Neutral(c) => canon_con(c),
        }
    }

    /// The underlying constructor.
    pub fn to_con(&self) -> RCon {
        match self {
            FieldKey::Lit(n) => Con::name(*n),
            FieldKey::Neutral(c) => *c,
        }
    }
}

/// A neutral row component: `base` is a neutral constructor of row kind
/// (an unsolved metavariable, an abstract variable, or a neutral
/// application), optionally under one fused `map`.
#[derive(Clone, Debug)]
pub struct RowAtom {
    /// The mapped function together with its domain kind, if any.
    pub map: Option<(RCon, Kind)>,
    /// The neutral row this atom stands for.
    pub base: RCon,
}

impl RowAtom {
    /// Rebuilds the constructor this atom denotes, at result element kind
    /// `out_kind`.
    pub fn to_con(&self, out_kind: &Kind) -> RCon {
        match &self.map {
            None => self.base,
            Some((f, dom)) => Con::map_app(
                dom.clone(),
                out_kind.clone(),
                *f,
                self.base,
            ),
        }
    }

    /// If the base is an unsolved metavariable, its id.
    pub fn base_meta(&self) -> Option<MetaId> {
        match &*self.base {
            Con::Meta(id) => Some(*id),
            _ => None,
        }
    }

    pub fn canon(&self) -> String {
        match &self.map {
            None => canon_con(&self.base),
            Some((f, _)) => format!("map({})({})", canon_con(f), canon_con(&self.base)),
        }
    }
}

/// Canonical row normal form: a multiset of fields plus a multiset of
/// neutral atoms, both kept sorted by a canonical key.
#[derive(Clone, Debug, Default)]
pub struct RowNf {
    /// Element kind of the row, when it could be determined syntactically.
    pub elem_kind: Option<Kind>,
    /// Literal and neutral-name fields, sorted by [`FieldKey::canon`].
    pub fields: Vec<(FieldKey, RCon)>,
    /// The same fields in *source order* (the order they were written or
    /// produced before canonical sorting). §4.4: the compiler generates
    /// omitted folders "using the permutation implied by the order in
    /// which fields appear", so the elaborator needs this order.
    pub source_fields: Vec<(FieldKey, RCon)>,
    /// Neutral row components, sorted by [`RowAtom::canon`].
    pub atoms: Vec<RowAtom>,
}

impl RowNf {
    /// True when the row is literally empty.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty() && self.atoms.is_empty()
    }

    /// Total number of components (fields + atoms).
    pub fn pieces(&self) -> usize {
        self.fields.len() + self.atoms.len()
    }

    /// If the whole row is a single bare unsolved metavariable, its id.
    pub fn single_meta(&self) -> Option<MetaId> {
        if self.fields.is_empty() && self.atoms.len() == 1 && self.atoms[0].map.is_none() {
            self.atoms[0].base_meta()
        } else {
            None
        }
    }

    /// The element kind, defaulting to `Type` when undetermined.
    pub fn kind_or_type(&self) -> Kind {
        self.elem_kind.clone().unwrap_or(Kind::Type)
    }

    /// Rebuilds a constructor denoting this normal form.
    pub fn to_con(&self) -> RCon {
        let k = self.kind_or_type();
        let mut parts: Vec<RCon> = Vec::new();
        for (key, v) in &self.fields {
            parts.push(Con::row_one(key.to_con(), *v));
        }
        for atom in &self.atoms {
            parts.push(atom.to_con(&k));
        }
        let mut it = parts.into_iter();
        match it.next() {
            None => Con::row_nil(k),
            Some(first) => it.fold(first, Con::row_cat),
        }
    }

    fn sort(&mut self) {
        self.fields.sort_by_key(|f| f.0.canon());
        self.atoms.sort_by_key(|a| a.canon());
    }

    /// Looks up a literal field by name.
    pub fn field_lit(&self, name: &str) -> Option<&RCon> {
        self.fields.iter().find_map(|(k, v)| match k {
            FieldKey::Lit(n) if &**n == name => Some(v),
            _ => None,
        })
    }

    /// Names of all literal fields, in canonical order.
    pub fn lit_names(&self) -> Vec<IStr> {
        self.fields
            .iter()
            .filter_map(|(k, _)| match k {
                FieldKey::Lit(n) => Some(*n),
                _ => None,
            })
            .collect()
    }
}

/// Normalizes a row-kinded constructor to canonical form, applying and
/// counting the Figure-3 laws.
///
/// Memoized (see [`crate::memo`]). The `row_normalizations` counter is
/// charged *before* the table lookup so it keeps counting calls, as
/// Figure 5 does; the law counters by contrast only advance on misses
/// (a cached normal form replays no rewrites).
pub fn normalize_row(env: &Env, cx: &mut Cx, c: &RCon) -> RowNf {
    cx.stats.row_normalizations += 1;
    let key = if cx.memo.enabled {
        cx.memo.check_laws(cx.laws);
        let id = *c;
        let (env_gen, meta_gen) = (env.generation(), cx.metas.generation());
        if let Some(nf) = cx.memo.row_get(id, env_gen, meta_gen) {
            cx.stats.row_memo_hits += 1;
            let _ = cx.fuel.step();
            return nf;
        }
        cx.stats.row_memo_misses += 1;
        Some((id, env_gen))
    } else {
        None
    };
    let mut nf = RowNf::default();
    collect(env, cx, c, &mut nf);
    nf.source_fields = nf.fields.clone();
    nf.sort();
    if let Some((id, env_gen)) = key {
        if cx.fuel.exhausted().is_none() {
            cx.memo.row_put(id, env_gen, cx.metas.generation(), &nf);
        }
    }
    nf
}

fn collect(env: &Env, cx: &mut Cx, c: &RCon, nf: &mut RowNf) {
    // Fuel-bounded: on exhaustion the remaining subtree is kept as one
    // opaque neutral atom — sound (it only makes fewer rows equal), and
    // the elaborator reports the exhaustion as a resource diagnostic.
    if !cx.fuel.descend() {
        nf.atoms.push(RowAtom {
            map: None,
            base: (*c),
        });
        return;
    }
    collect_inner(env, cx, c, nf);
    cx.fuel.ascend();
}

fn collect_inner(env: &Env, cx: &mut Cx, c: &RCon, nf: &mut RowNf) {
    let c = hnf(env, cx, c);
    match &*c {
        Con::RowNil(k) => {
            if nf.elem_kind.is_none() {
                nf.elem_kind = Some(k.clone());
            }
        }
        Con::RowOne(n, v) => {
            let n = hnf(env, cx, n);
            let key = match &*n {
                Con::Name(s) => FieldKey::Lit(*s),
                _ => FieldKey::Neutral(n),
            };
            nf.fields.push((key, (*v)));
        }
        Con::RowCat(_, _) => {
            // Wide rows are the common case; walk the concat tree with an
            // explicit worklist so field count costs no call stack (a
            // 5,000-field record is a 5,000-deep concat chain).
            let mut work = vec![c];
            while let Some(part) = work.pop() {
                let part = hnf(env, cx, &part);
                if let Con::RowCat(a, b) = &*part {
                    work.push(*b);
                    work.push(*a);
                } else {
                    collect(env, cx, &part, nf);
                }
            }
        }
        Con::App(_, _) => {
            let (head, args) = c.spine();
            let head = hnf(env, cx, &head);
            if let (Con::Map(k1, k2), 2) = (&*head, args.len()) {
                if nf.elem_kind.is_none() {
                    nf.elem_kind = Some(cx.metas.zonk_kind(k2));
                }
                collect_map(env, cx, &args[0], &args[1], k1, nf);
            } else {
                nf.atoms.push(RowAtom { map: None, base: c });
            }
        }
        // Neutral: abstract variable, unsolved metavariable, or stuck
        // projection.
        _ => {
            nf.atoms.push(RowAtom { map: None, base: c });
        }
    }
}

/// Adds `map f r` to `nf`, applying the map laws.
fn collect_map(env: &Env, cx: &mut Cx, f: &RCon, r: &RCon, dom: &Kind, nf: &mut RowNf) {
    let mut sub = RowNf::default();
    collect(env, cx, r, &mut sub);

    // Identity law: map (fn a => a) c = c.
    if cx.laws.identity && is_identity(env, cx, f) {
        cx.stats.law_map_identity += 1;
        nf.fields.extend(sub.fields);
        nf.atoms.extend(sub.atoms);
        return;
    }

    // Distributivity: pushing the map across >1 components.
    if sub.pieces() > 1 {
        if !cx.laws.distrib {
            // Law disabled: keep `map f <sub>` as one opaque component.
            nf.atoms.push(RowAtom {
                map: Some(((*f), dom.clone())),
                base: sub.to_con(),
            });
            return;
        }
        cx.stats.law_map_distrib += 1;
    }

    // map f ([n = v] ++ r) = [n = f v] ++ map f r   (map-cons)
    for (key, v) in sub.fields {
        let applied = hnf(env, cx, &Con::app(*f, v));
        nf.fields.push((key, applied));
    }
    for atom in sub.atoms {
        match atom.map {
            None => nf.atoms.push(RowAtom {
                map: Some(((*f), dom.clone())),
                base: atom.base,
            }),
            Some((g, g_dom)) => {
                if !cx.laws.fusion {
                    // Law disabled: the inner map stays opaque.
                    nf.atoms.push(RowAtom {
                        map: Some(((*f), dom.clone())),
                        base: Con::map_app(
                            g_dom.clone(),
                            dom.clone(),
                            g,
                            atom.base,
                        ),
                    });
                    continue;
                }
                // Fusion: map f (map g c) = map (fn a => f (g a)) c.
                cx.stats.law_map_fusion += 1;
                let a = Sym::fresh("a");
                let composed = Con::lam(
                    a,
                    g_dom.clone(),
                    Con::app(*f, Con::app(g, Con::var(&a))),
                );
                // The composition may itself be an identity (e.g.
                // `fst (same a)`), in which case the identity law applies
                // to the fused map.
                if cx.laws.identity && is_identity(env, cx, &composed) {
                    cx.stats.law_map_identity += 1;
                    nf.atoms.push(RowAtom {
                        map: None,
                        base: atom.base,
                    });
                } else {
                    nf.atoms.push(RowAtom {
                        map: Some((composed, g_dom)),
                        base: atom.base,
                    });
                }
            }
        }
    }
}

/// Recognizes (type-level) identity functions up to head normalization.
pub fn is_identity(env: &Env, cx: &mut Cx, f: &RCon) -> bool {
    let f = hnf(env, cx, f);
    match &*f {
        Con::Lam(x, _, body) => {
            let body = hnf(env, cx, body);
            matches!(&*body, Con::Var(y) if y == x)
        }
        _ => false,
    }
}

/// Produces an unambiguous canonical string for a constructor, used only
/// for deterministic ordering of normal-form components (never shown to
/// users).
pub fn canon_con(c: &RCon) -> String {
    let mut s = String::new();
    canon_into(c, &mut s);
    s
}

fn canon_into(c: &RCon, out: &mut String) {
    use std::fmt::Write;
    match &**c {
        Con::Var(v) => {
            let _ = write!(out, "v{}:{}", v.id(), v.name());
        }
        Con::Meta(m) => {
            let _ = write!(out, "?{}", m.0);
        }
        Con::Prim(p) => {
            let _ = write!(out, "p{p}");
        }
        Con::Name(n) => {
            let _ = write!(out, "#{n}");
        }
        Con::Arrow(a, b) => bin(out, "->", a, b),
        Con::App(a, b) => bin(out, "@", a, b),
        Con::RowOne(a, b) => bin(out, "=", a, b),
        Con::RowCat(a, b) => bin(out, "++", a, b),
        Con::Pair(a, b) => bin(out, ",", a, b),
        Con::Poly(s, k, t) => {
            let _ = write!(out, "all(v{}::{k}.", s.id());
            canon_into(t, out);
            out.push(')');
        }
        Con::Lam(s, k, t) => {
            let _ = write!(out, "lam(v{}::{k}.", s.id());
            canon_into(t, out);
            out.push(')');
        }
        Con::Guarded(a, b, t) => {
            out.push_str("grd(");
            canon_into(a, out);
            out.push('~');
            canon_into(b, out);
            out.push('.');
            canon_into(t, out);
            out.push(')');
        }
        Con::Record(r) => {
            out.push('$');
            canon_into(r, out);
        }
        Con::RowNil(k) => {
            let _ = write!(out, "nil[{k}]");
        }
        Con::Map(k1, k2) => {
            let _ = write!(out, "map[{k1};{k2}]");
        }
        Con::Folder(k) => {
            let _ = write!(out, "folder[{k}]");
        }
        Con::Fst(r) => {
            out.push_str("fst(");
            canon_into(r, out);
            out.push(')');
        }
        Con::Snd(r) => {
            out.push_str("snd(");
            canon_into(r, out);
            out.push(')');
        }
    }
}

fn bin(out: &mut String, op: &str, a: &RCon, b: &RCon) {
    out.push('(');
    canon_into(a, out);
    out.push_str(op);
    canon_into(b, out);
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::con::PrimType;

    fn setup() -> (Env, Cx) {
        (Env::new(), Cx::new())
    }

    fn lit_row(names: &[(&str, RCon)]) -> RCon {
        Con::row_of(
            Kind::Type,
            names
                .iter()
                .map(|(n, c)| (Con::name(*n), (*c)))
                .collect(),
        )
    }

    #[test]
    fn empty_row_normalizes_empty() {
        let (env, mut cx) = setup();
        let nf = normalize_row(&env, &mut cx, &Con::row_nil(Kind::Type));
        assert!(nf.is_empty());
        assert_eq!(nf.elem_kind, Some(Kind::Type));
    }

    #[test]
    fn fields_are_sorted_canonically() {
        let (env, mut cx) = setup();
        let r = lit_row(&[("B", Con::float()), ("A", Con::int())]);
        let nf = normalize_row(&env, &mut cx, &r);
        let names: Vec<String> = nf.lit_names().iter().map(|n| n.to_string()).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn concat_is_commutative_in_nf() {
        let (env, mut cx) = setup();
        let ab = Con::row_cat(
            lit_row(&[("A", Con::int())]),
            lit_row(&[("B", Con::float())]),
        );
        let ba = Con::row_cat(
            lit_row(&[("B", Con::float())]),
            lit_row(&[("A", Con::int())]),
        );
        let n1 = normalize_row(&env, &mut cx, &ab);
        let n2 = normalize_row(&env, &mut cx, &ba);
        assert_eq!(canon_con(&n1.to_con()), canon_con(&n2.to_con()));
    }

    #[test]
    fn concat_is_associative_in_nf() {
        let (env, mut cx) = setup();
        let a = lit_row(&[("A", Con::int())]);
        let b = lit_row(&[("B", Con::float())]);
        let c = lit_row(&[("C", Con::bool_())]);
        let left = Con::row_cat(Con::row_cat(a, b), c);
        let right = Con::row_cat(a, Con::row_cat(b, c));
        let n1 = normalize_row(&env, &mut cx, &left);
        let n2 = normalize_row(&env, &mut cx, &right);
        assert_eq!(canon_con(&n1.to_con()), canon_con(&n2.to_con()));
    }

    #[test]
    fn nil_is_identity_for_concat() {
        let (env, mut cx) = setup();
        let a = lit_row(&[("A", Con::int())]);
        let wrapped = Con::row_cat(Con::row_nil(Kind::Type), a);
        let n1 = normalize_row(&env, &mut cx, &wrapped);
        let n2 = normalize_row(&env, &mut cx, &a);
        assert_eq!(canon_con(&n1.to_con()), canon_con(&n2.to_con()));
    }

    #[test]
    fn map_identity_law_counts() {
        let (env, mut cx) = setup();
        let a = Sym::fresh("a");
        let idf = Con::lam(a, Kind::Type, Con::var(&a));
        let r = lit_row(&[("A", Con::int())]);
        let m = Con::map_app(Kind::Type, Kind::Type, idf, r);
        let nf = normalize_row(&env, &mut cx, &m);
        assert_eq!(cx.stats.law_map_identity, 1);
        assert_eq!(nf.fields.len(), 1);
        match &*cx.metas.resolve(nf.field_lit("A").unwrap()) {
            Con::Prim(PrimType::Int) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn map_cons_applies_function() {
        let (env, mut cx) = setup();
        // map (fn a => a -> a) [A = int]  =  [A = int -> int]
        let a = Sym::fresh("a");
        let f = Con::lam(
            a,
            Kind::Type,
            Con::arrow(Con::var(&a), Con::var(&a)),
        );
        let r = lit_row(&[("A", Con::int())]);
        let m = Con::map_app(Kind::Type, Kind::Type, f, r);
        let nf = normalize_row(&env, &mut cx, &m);
        match &**nf.field_lit("A").unwrap() {
            Con::Arrow(l, r) => {
                assert!(matches!(&**l, Con::Prim(PrimType::Int)));
                assert!(matches!(&**r, Con::Prim(PrimType::Int)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn map_distributivity_counts() {
        let (mut env, mut cx) = setup();
        let rv = Sym::fresh("r");
        env.bind_con(rv, Kind::row(Kind::Type));
        let a = Sym::fresh("a");
        let f = Con::lam(
            a,
            Kind::Type,
            Con::arrow(Con::var(&a), Con::var(&a)),
        );
        // map f ([A = int] ++ r): one literal field plus one atom.
        let r = Con::row_cat(lit_row(&[("A", Con::int())]), Con::var(&rv));
        let m = Con::map_app(Kind::Type, Kind::Type, f, r);
        let nf = normalize_row(&env, &mut cx, &m);
        assert_eq!(cx.stats.law_map_distrib, 1);
        assert_eq!(nf.fields.len(), 1);
        assert_eq!(nf.atoms.len(), 1);
        assert!(nf.atoms[0].map.is_some());
    }

    #[test]
    fn map_fusion_counts() {
        let (mut env, mut cx) = setup();
        let rv = Sym::fresh("r");
        env.bind_con(rv, Kind::row(Kind::Type));
        let mk = |sym: &str| {
            let a = Sym::fresh(sym);
            Con::lam(
                a,
                Kind::Type,
                Con::arrow(Con::var(&a), Con::var(&a)),
            )
        };
        let inner = Con::map_app(Kind::Type, Kind::Type, mk("g"), Con::var(&rv));
        let outer = Con::map_app(Kind::Type, Kind::Type, mk("f"), inner);
        let nf = normalize_row(&env, &mut cx, &outer);
        assert_eq!(cx.stats.law_map_fusion, 1);
        assert_eq!(nf.atoms.len(), 1);
        // The fused atom carries a composed function.
        let (f, _) = nf.atoms[0].map.as_ref().unwrap();
        assert!(matches!(&**f, Con::Lam(_, _, _)));
    }

    #[test]
    fn single_meta_detection() {
        let (env, mut cx) = setup();
        let m = cx.metas.fresh(Kind::row(Kind::Type), "r");
        let nf = normalize_row(&env, &mut cx, &Con::meta(m));
        assert_eq!(nf.single_meta(), Some(m));
        let catted = Con::row_cat(
            Con::meta(m),
            Con::row_one(Con::name("A"), Con::int()),
        );
        let nf2 = normalize_row(&env, &mut cx, &catted);
        assert_eq!(nf2.single_meta(), None);
        assert_eq!(nf2.pieces(), 2);
    }

    #[test]
    fn solved_meta_row_is_spliced() {
        let (env, mut cx) = setup();
        let m = cx.metas.fresh(Kind::row(Kind::Type), "r");
        cx.metas.solve(m, lit_row(&[("B", Con::float())]));
        let catted = Con::row_cat(
            Con::meta(m),
            Con::row_one(Con::name("A"), Con::int()),
        );
        let nf = normalize_row(&env, &mut cx, &catted);
        assert_eq!(nf.fields.len(), 2);
        assert!(nf.atoms.is_empty());
    }

    #[test]
    fn to_con_roundtrip_preserves_nf() {
        let (mut env, mut cx) = setup();
        let rv = Sym::fresh("r");
        env.bind_con(rv, Kind::row(Kind::Type));
        let r = Con::row_cat(
            lit_row(&[("B", Con::float()), ("A", Con::int())]),
            Con::var(&rv),
        );
        let nf = normalize_row(&env, &mut cx, &r);
        let rebuilt = nf.to_con();
        let nf2 = normalize_row(&env, &mut cx, &rebuilt);
        assert_eq!(canon_con(&nf.to_con()), canon_con(&nf2.to_con()));
    }

    #[test]
    fn neutral_field_keys_survive() {
        let (mut env, mut cx) = setup();
        let nm = Sym::fresh("nm");
        env.bind_con(nm, Kind::Name);
        let r = Con::row_one(Con::var(&nm), Con::int());
        let nf = normalize_row(&env, &mut cx, &r);
        assert_eq!(nf.fields.len(), 1);
        assert!(matches!(nf.fields[0].0, FieldKey::Neutral(_)));
    }
}
