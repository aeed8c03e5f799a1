// Library code must be panic-free: unwrap/expect/panic are denied
// outside cfg(test) (see docs/ROBUSTNESS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! # ur-web — the Ur/Web standard library and session runtime
//!
//! Reproduces the Ur/Web layer of the paper (§5): a standard library whose
//! *signature* (written in Ur, [`prelude::PRELUDE`]) encodes typed
//! HTML/XML documents and typed SQL tables/expressions, so that every
//! metaprogram output is schema-correct and injection-free by
//! construction — "no method is provided to pattern-match on the syntax of
//! an exp" (§2.2); strings enter documents only via escaping `cdata`, and
//! SQL strings only via escaped literals.
//!
//! [`Session`] is the top-level entry point: it installs the library into
//! an elaborator, wires the primitive implementations
//! ([`builtins::registry`]) into the interpreter, and runs programs
//! against an in-memory database ([`ur_db::Db`]).
//!
//! ```
//! use ur_web::Session;
//!
//! let mut sess = Session::new()?;
//! sess.run(
//!     "val t = createTable \"items\" {Label = sqlString}\n\
//!      val u = insert t {Label = const \"<b>safe</b>\"}",
//! )?;
//! assert_eq!(sess.db().row_count("items").unwrap(), 1);
//! # Ok::<(), ur_web::SessionError>(())
//! ```

pub mod builtins;
pub mod prelude;
pub mod session;

pub use prelude::PRELUDE;
pub use session::{db_report, Session, SessionError};
