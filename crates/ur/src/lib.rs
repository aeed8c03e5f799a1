//! # ur — statically-typed metaprogramming with type-level record computation
//!
//! A comprehensive Rust reproduction of
//! *Ur: Statically-Typed Metaprogramming with Type-Level Record
//! Computation* (Adam Chlipala, PLDI 2010): the Featherweight Ur core
//! calculus, the heuristic type-inference engine (row unification,
//! reverse-engineering unification, automatic disjointness proving, folder
//! generation), a surface-language front end, a type-passing interpreter,
//! the Ur/Web-style typed XML + SQL standard library over an in-memory
//! relational engine, and the paper's §6 case-study metaprograms.
//!
//! The most convenient entry point is [`Session`]:
//!
//! ```
//! use ur::Session;
//!
//! let mut sess = ur::Session::new()?;
//! sess.run(
//!     "fun proj [nm :: Name] [t :: Type] [r :: {Type}] [[nm] ~ r] \
//!          (x : $([nm = t] ++ r)) = x.nm \
//!      val a = proj [#A] {A = 1, B = 2.3}",
//! )?;
//! assert_eq!(sess.get_int("a")?, 1);
//! # Ok::<(), ur::SessionError>(())
//! ```
//!
//! Layer map (one crate per subsystem, re-exported here):
//!
//! * [`core`] — kinds, constructors, expressions, kinding, definitional
//!   equality with the Figure-3 row laws, typing, disjointness (§3);
//! * [`syntax`] — lexer and parser for the §2 surface notation;
//! * [`infer`] — elaboration and unification (§4);
//! * [`query`] — the red-green incremental elaboration engine with its
//!   process-wide live-outcome layer;
//! * [`eval`] — the call-by-value interpreter;
//! * [`web`] — the Ur/Web standard library and [`Session`] runtime (§5);
//! * [`db`] — the in-memory relational substrate;
//! * [`serve`] — the resilient serving layer (`urc --serve`/`--listen`):
//!   session pool, deadline fuel, overload shedding, drain;
//! * [`studies`] — the §6 case studies, written in Ur.

pub use ur_core as core;
pub use ur_db as db;
pub use ur_eval as eval;
pub use ur_infer as infer;
pub use ur_query as query;
pub use ur_serve as serve;
pub use ur_studies as studies;
pub use ur_syntax as syntax;
pub use ur_web as web;

pub use ur_eval::Value;
pub use ur_infer::Elaborator;
pub use ur_web::{Session, SessionError};
