//! The typing judgment `G |- e : t` (paper Figure 4).
//!
//! This is a *checker* for elaborated core terms: elaboration (in
//! `ur-infer`) produces fully explicit terms, and this judgment
//! re-validates them — a strong internal consistency check used throughout
//! the test suite. The congruence rule (`e : t` and `t = t'` imply
//! `e : t'`) is realized by calling [`crate::defeq::defeq`] at every
//! comparison point.

use crate::con::{Con, RCon};
use crate::defeq::defeq;
use crate::disjoint::{prove, ProveResult};
use crate::env::Env;
use crate::error::CoreError;
use crate::expr::{Expr, Lit, RExpr};
use crate::hnf::hnf;
use crate::kind::Kind;
use crate::kinding::kind_of;
use crate::row::{normalize_row, FieldKey};
use crate::subst::subst;
use crate::Cx;

/// Computes the type of `e` in `env`.
///
/// # Errors
///
/// Returns a [`CoreError`] if `e` is ill-typed.
pub fn type_of(env: &Env, cx: &mut Cx, e: &RExpr) -> Result<RCon, CoreError> {
    match &**e {
        Expr::Var(x) => env
            .lookup_val(x)
            .cloned()
            .ok_or(CoreError::UnboundVar(*x)),
        Expr::Lit(l) => Ok(match l {
            Lit::Int(_) => Con::int(),
            Lit::Float(_) => Con::float(),
            Lit::Str(_) => Con::string(),
            Lit::Bool(_) => Con::bool_(),
            Lit::Unit => Con::unit(),
        }),
        Expr::App(e1, e2) => {
            let t1 = type_of(env, cx, e1)?;
            let t1 = hnf(env, cx, &t1);
            match &*t1 {
                Con::Arrow(dom, ran) => {
                    let t2 = type_of(env, cx, e2)?;
                    if !defeq(env, cx, &t2, dom) {
                        return Err(CoreError::TypeMismatch {
                            expected: (*dom),
                            got: t2,
                        });
                    }
                    Ok(*ran)
                }
                _ => Err(CoreError::NotFunction(t1)),
            }
        }
        Expr::Lam(x, t, body) => {
            expect_type_kind(env, cx, t)?;
            let mut env2 = env.clone();
            env2.bind_val(*x, *t);
            let tb = type_of(&env2, cx, body)?;
            Ok(Con::arrow(*t, tb))
        }
        Expr::CApp(e, c) => {
            let t = type_of(env, cx, e)?;
            let t = hnf(env, cx, &t);
            // A folder being applied: unfold its definition on demand.
            let t = match crate::folder::as_folder_app(&t) {
                Some((k, r)) => crate::folder::unfold_folder(&k, &r),
                None => t,
            };
            match &*t {
                Con::Poly(a, k, body) => {
                    let kc = kind_of(env, cx, c)?;
                    if !crate::defeq::kinds_eq(&crate::defeq::MutCxRef(&cx.metas), &kc, k) {
                        return Err(CoreError::KindMismatch {
                            expected: k.clone(),
                            got: kc,
                            context: format!("constructor argument {c}"),
                        });
                    }
                    Ok(subst(body, a, c))
                }
                _ => Err(CoreError::NotPolymorphic(t)),
            }
        }
        Expr::CLam(a, k, body) => {
            let mut env2 = env.clone();
            env2.bind_con(*a, k.clone());
            let tb = type_of(&env2, cx, body)?;
            Ok(Con::poly(*a, k.clone(), tb))
        }
        Expr::RecNil => Ok(Con::record(Con::row_nil(Kind::Type))),
        Expr::RecOne(n, e) => {
            let kn = kind_of(env, cx, n)?;
            if !crate::defeq::kinds_eq(&crate::defeq::MutCxRef(&cx.metas), &kn, &Kind::Name) {
                return Err(CoreError::KindMismatch {
                    expected: Kind::Name,
                    got: kn,
                    context: format!("record field name {n}"),
                });
            }
            let t = type_of(env, cx, e)?;
            Ok(Con::record(Con::row_one(*n, t)))
        }
        Expr::RecCat(e1, e2) => {
            let t1 = type_of(env, cx, e1)?;
            let r1 = expect_record(env, cx, &t1)?;
            let t2 = type_of(env, cx, e2)?;
            let r2 = expect_record(env, cx, &t2)?;
            match prove(env, cx, &r1, &r2) {
                ProveResult::Proved => Ok(Con::record(Con::row_cat(r1, r2))),
                _ => Err(CoreError::DisjointnessFailed {
                    left: r1,
                    right: r2,
                }),
            }
        }
        Expr::Proj(e, c) => {
            let t = type_of(env, cx, e)?;
            let r = expect_record(env, cx, &t)?;
            lookup_field(env, cx, &r, c)
        }
        Expr::Cut(e, c) => {
            let t = type_of(env, cx, e)?;
            let r = expect_record(env, cx, &t)?;
            let rest = remove_field(env, cx, &r, c)?;
            Ok(Con::record(rest))
        }
        Expr::DLam(c1, c2, body) => {
            let mut env2 = env.clone();
            env2.assume_disjoint(*c1, *c2);
            let tb = type_of(&env2, cx, body)?;
            Ok(Con::guarded(*c1, *c2, tb))
        }
        Expr::DApp(e) => {
            let t = type_of(env, cx, e)?;
            let t = hnf(env, cx, &t);
            match &*t {
                Con::Guarded(c1, c2, body) => match prove(env, cx, c1, c2) {
                    ProveResult::Proved => Ok(*body),
                    _ => Err(CoreError::DisjointnessFailed {
                        left: (*c1),
                        right: (*c2),
                    }),
                },
                _ => Err(CoreError::NotGuarded(t)),
            }
        }
        Expr::Let(x, t, bound, body) => {
            let tb = type_of(env, cx, bound)?;
            if !defeq(env, cx, &tb, t) {
                return Err(CoreError::TypeMismatch {
                    expected: (*t),
                    got: tb,
                });
            }
            let mut env2 = env.clone();
            env2.bind_val(*x, *t);
            type_of(&env2, cx, body)
        }
        Expr::If(c, th, el) => {
            let tc = type_of(env, cx, c)?;
            if !defeq(env, cx, &tc, &Con::bool_()) {
                return Err(CoreError::TypeMismatch {
                    expected: Con::bool_(),
                    got: tc,
                });
            }
            let tt = type_of(env, cx, th)?;
            let te = type_of(env, cx, el)?;
            if !defeq(env, cx, &tt, &te) {
                return Err(CoreError::TypeMismatch {
                    expected: tt,
                    got: te,
                });
            }
            Ok(tt)
        }
    }
}

fn expect_type_kind(env: &Env, cx: &mut Cx, t: &RCon) -> Result<(), CoreError> {
    let k = kind_of(env, cx, t)?;
    if crate::defeq::kinds_eq(&crate::defeq::MutCxRef(&cx.metas), &k, &Kind::Type) {
        Ok(())
    } else {
        Err(CoreError::KindMismatch {
            expected: Kind::Type,
            got: k,
            context: format!("type annotation {t}"),
        })
    }
}

/// Requires `t` to head-normalize to a record type `$r` and returns `r`.
pub fn expect_record(env: &Env, cx: &mut Cx, t: &RCon) -> Result<RCon, CoreError> {
    let t = hnf(env, cx, t);
    match &*t {
        Con::Record(r) => Ok(*r),
        _ => Err(CoreError::NotRecord(t)),
    }
}

/// Finds the type of field `c` in row `r` (the rule
/// `G |- e : $([c = t] ++ c')  ==>  G |- e.c : t`).
pub fn lookup_field(env: &Env, cx: &mut Cx, r: &RCon, c: &RCon) -> Result<RCon, CoreError> {
    let nf = normalize_row(env, cx, r);
    let c_hnf = hnf(env, cx, c);
    for (key, v) in &nf.fields {
        let matches = match (&*c_hnf, key) {
            (Con::Name(n), FieldKey::Lit(m)) => n == m,
            (_, FieldKey::Neutral(k)) => {
                let k = *k;
                defeq(env, cx, &c_hnf, &k)
            }
            _ => false,
        };
        if matches {
            return Ok(*v);
        }
    }
    Err(CoreError::FieldMissing {
        record_type: Con::record(*r),
        field: (*c),
    })
}

/// Computes the row remaining after removing field `c` from `r` (for
/// `e -- c`).
pub fn remove_field(env: &Env, cx: &mut Cx, r: &RCon, c: &RCon) -> Result<RCon, CoreError> {
    let nf = normalize_row(env, cx, r);
    let c_hnf = hnf(env, cx, c);
    let mut out = nf.clone();
    let mut found = false;
    out.fields.clear();
    for (key, v) in &nf.fields {
        let matches = !found
            && match (&*c_hnf, key) {
                (Con::Name(n), FieldKey::Lit(m)) => n == m,
                (_, FieldKey::Neutral(k)) => {
                    let k = *k;
                    defeq(env, cx, &c_hnf, &k)
                }
                _ => false,
            };
        if matches {
            found = true;
        } else {
            out.fields.push((key.clone(), (*v)));
        }
    }
    if !found {
        return Err(CoreError::FieldMissing {
            record_type: Con::record(*r),
            field: (*c),
        });
    }
    Ok(out.to_con())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Sym;

    fn setup() -> (Env, Cx) {
        (Env::new(), Cx::new())
    }

    fn int_lit(n: i64) -> RExpr {
        Expr::lit(Lit::Int(n))
    }

    #[test]
    fn literals() {
        let (env, mut cx) = setup();
        let t_int = type_of(&env, &mut cx, &int_lit(3)).unwrap();
        assert!(defeq(&env, &mut cx, &t_int, &Con::int()));
        let t_bool = type_of(&env, &mut cx, &Expr::lit(Lit::Bool(true))).unwrap();
        assert!(defeq(&env, &mut cx, &t_bool, &Con::bool_()));
    }

    #[test]
    fn lambda_and_application() {
        let (env, mut cx) = setup();
        let x = Sym::fresh("x");
        let f = Expr::lam(x, Con::int(), Expr::var(&x));
        let t = type_of(&env, &mut cx, &f).unwrap();
        assert!(defeq(&env, &mut cx, &t, &Con::arrow(Con::int(), Con::int())));
        let app = Expr::app(f, int_lit(1));
        let t2 = type_of(&env, &mut cx, &app).unwrap();
        assert!(defeq(&env, &mut cx, &t2, &Con::int()));
    }

    #[test]
    fn application_type_mismatch() {
        let (env, mut cx) = setup();
        let x = Sym::fresh("x");
        let f = Expr::lam(x, Con::int(), Expr::var(&x));
        let app = Expr::app(f, Expr::lit(Lit::Str("no".into())));
        assert!(matches!(
            type_of(&env, &mut cx, &app),
            Err(CoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn record_literal_and_projection() {
        let (env, mut cx) = setup();
        // {A = 1, B = 2.3}.A : int
        let rec = Expr::record(vec![
            (Con::name("A"), int_lit(1)),
            (Con::name("B"), Expr::lit(Lit::Float(2.3))),
        ]);
        let t = type_of(&env, &mut cx, &rec).unwrap();
        let expected = Con::record(Con::row_of(
            Kind::Type,
            vec![
                (Con::name("A"), Con::int()),
                (Con::name("B"), Con::float()),
            ],
        ));
        assert!(defeq(&env, &mut cx, &t, &expected));
        let proj = Expr::proj(rec, Con::name("A"));
        let tp = type_of(&env, &mut cx, &proj).unwrap();
        assert!(defeq(&env, &mut cx, &tp, &Con::int()));
    }

    #[test]
    fn record_concat_requires_disjointness() {
        let (env, mut cx) = setup();
        let r1 = Expr::record(vec![(Con::name("A"), int_lit(1))]);
        let r2 = Expr::record(vec![(Con::name("A"), int_lit(2))]);
        let cat = Expr::rec_cat(r1, r2);
        assert!(matches!(
            type_of(&env, &mut cx, &cat),
            Err(CoreError::DisjointnessFailed { .. })
        ));
    }

    #[test]
    fn record_cut() {
        let (env, mut cx) = setup();
        let rec = Expr::record(vec![
            (Con::name("A"), int_lit(1)),
            (Con::name("B"), Expr::lit(Lit::Float(2.3))),
        ]);
        let cut = Expr::cut(rec, Con::name("A"));
        let t = type_of(&env, &mut cx, &cut).unwrap();
        let expected = Con::record(Con::row_one(Con::name("B"), Con::float()));
        assert!(defeq(&env, &mut cx, &t, &expected));
    }

    #[test]
    fn cut_missing_field_fails() {
        let (env, mut cx) = setup();
        let rec = Expr::record(vec![(Con::name("A"), int_lit(1))]);
        let cut = Expr::cut(rec, Con::name("Z"));
        assert!(matches!(
            type_of(&env, &mut cx, &cut),
            Err(CoreError::FieldMissing { .. })
        ));
    }

    #[test]
    fn paper_proj_function_typechecks() {
        // fun proj [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r]
        //          (x : $([nm = t] ++ r)) = x.nm
        let (env, mut cx) = setup();
        let nm = Sym::fresh("nm");
        let t = Sym::fresh("t");
        let r = Sym::fresh("r");
        let x = Sym::fresh("x");
        let single = Con::row_one(Con::var(&nm), Con::var(&t));
        let body = Expr::clam(
            nm,
            Kind::Name,
            Expr::clam(
                t,
                Kind::Type,
                Expr::clam(
                    r,
                    Kind::row(Kind::Type),
                    Expr::dlam(
                        single,
                        Con::var(&r),
                        Expr::lam(
                            x,
                            Con::record(Con::row_cat(single, Con::var(&r))),
                            Expr::proj(Expr::var(&x), Con::var(&nm)),
                        ),
                    ),
                ),
            ),
        );
        let ty = type_of(&env, &mut cx, &body).unwrap();
        // Expected: nm :: Name -> t :: Type -> r :: {Type} ->
        //           [[nm = t] ~ r] => $([nm = t] ++ r) -> t
        let expected = Con::poly(
            nm,
            Kind::Name,
            Con::poly(
                t,
                Kind::Type,
                Con::poly(
                    r,
                    Kind::row(Kind::Type),
                    Con::guarded(
                        single,
                        Con::var(&r),
                        Con::arrow(
                            Con::record(Con::row_cat(single, Con::var(&r))),
                            Con::var(&t),
                        ),
                    ),
                ),
            ),
        );
        assert!(defeq(&env, &mut cx, &ty, &expected));
    }

    #[test]
    fn paper_proj_applied_reduces_to_int() {
        // proj [#A] [int] [[B = float]] ! {A = 1, B = 2.3} : int
        let (env, mut cx) = setup();
        let nm = Sym::fresh("nm");
        let t = Sym::fresh("t");
        let r = Sym::fresh("r");
        let x = Sym::fresh("x");
        let single = Con::row_one(Con::var(&nm), Con::var(&t));
        let proj = Expr::clam(
            nm,
            Kind::Name,
            Expr::clam(
                t,
                Kind::Type,
                Expr::clam(
                    r,
                    Kind::row(Kind::Type),
                    Expr::dlam(
                        single,
                        Con::var(&r),
                        Expr::lam(
                            x,
                            Con::record(Con::row_cat(single, Con::var(&r))),
                            Expr::proj(Expr::var(&x), Con::var(&nm)),
                        ),
                    ),
                ),
            ),
        );
        let call = Expr::app(
            Expr::dapp(Expr::capp(
                Expr::capp(
                    Expr::capp(proj, Con::name("A")),
                    Con::int(),
                ),
                Con::row_one(Con::name("B"), Con::float()),
            )),
            Expr::record(vec![
                (Con::name("A"), int_lit(1)),
                (Con::name("B"), Expr::lit(Lit::Float(2.3))),
            ]),
        );
        let ty = type_of(&env, &mut cx, &call).unwrap();
        assert!(defeq(&env, &mut cx, &ty, &Con::int()));
    }

    #[test]
    fn dapp_on_unprovable_guard_fails() {
        let (env, mut cx) = setup();
        let body = Expr::dlam(
            Con::row_one(Con::name("A"), Con::int()),
            Con::row_one(Con::name("A"), Con::float()),
            Expr::lit(Lit::Unit),
        );
        let forced = Expr::dapp(body);
        assert!(matches!(
            type_of(&env, &mut cx, &forced),
            Err(CoreError::DisjointnessFailed { .. })
        ));
    }

    #[test]
    fn let_checks_annotation() {
        let (env, mut cx) = setup();
        let x = Sym::fresh("x");
        let good = Expr::let_(x, Con::int(), int_lit(1), Expr::var(&x));
        assert!(type_of(&env, &mut cx, &good).is_ok());
        let bad = Expr::let_(
            x,
            Con::string(),
            int_lit(1),
            Expr::var(&x),
        );
        assert!(type_of(&env, &mut cx, &bad).is_err());
    }

    #[test]
    fn if_branches_must_agree() {
        let (env, mut cx) = setup();
        let good = Expr::if_(Expr::lit(Lit::Bool(true)), int_lit(1), int_lit(2));
        assert!(type_of(&env, &mut cx, &good).is_ok());
        let bad = Expr::if_(
            Expr::lit(Lit::Bool(true)),
            int_lit(1),
            Expr::lit(Lit::Str("x".into())),
        );
        assert!(type_of(&env, &mut cx, &bad).is_err());
        let bad_cond = Expr::if_(int_lit(0), int_lit(1), int_lit(2));
        assert!(type_of(&env, &mut cx, &bad_cond).is_err());
    }

    #[test]
    fn projection_by_neutral_name_under_binder() {
        // fn [nm :: Name] => fn (x : $[nm = int]) => x.nm
        let (env, mut cx) = setup();
        let nm = Sym::fresh("nm");
        let x = Sym::fresh("x");
        let e = Expr::clam(
            nm,
            Kind::Name,
            Expr::lam(
                x,
                Con::record(Con::row_one(Con::var(&nm), Con::int())),
                Expr::proj(Expr::var(&x), Con::var(&nm)),
            ),
        );
        let t = type_of(&env, &mut cx, &e).unwrap();
        match &*t {
            Con::Poly(_, _, inner) => match &**inner {
                Con::Arrow(_, ran) => {
                    assert!(matches!(&**ran, Con::Prim(crate::con::PrimType::Int)))
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
