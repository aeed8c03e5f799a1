// Library code must be panic-free: unwrap/expect/panic are denied
// outside cfg(test) (see docs/ROBUSTNESS.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

//! # ur-db — in-memory relational engine substrate
//!
//! The paper's case studies (§2.2, §6) generate SQL commands against a
//! database server; Ur/Web's typed `table`/`exp` embedding guarantees the
//! generated SQL is schema-correct and injection-free. This crate is the
//! substitute substrate: an in-memory engine executing the same command
//! ASTs, with a SQL-text log whose statements are escaped exactly as a
//! real deployment's wire statements would be (see DESIGN.md §3).
//!
//! [`Db::open`] backs the same API with a crash-safe durability layer:
//! a CRC-tagged, fsync'd write-ahead log ([`wal`]) plus snapshot
//! compaction ([`snapshot`]), explicit transactions ([`Db::begin`] /
//! [`Db::commit`] / [`Db::rollback`]), and recovery that replays
//! exactly the committed prefix ([`recover`]) — torn or uncommitted WAL
//! tails are truncated at the last committed transaction boundary. See
//! `docs/ROBUSTNESS.md` §7.
//!
//! ## Example
//!
//! ```
//! use ur_db::{ColTy, Db, DbVal, Schema, SqlExpr};
//!
//! let mut db = Db::new();
//! db.create_table(
//!     "t",
//!     Schema::new(vec![("A".into(), ColTy::Int), ("B".into(), ColTy::Str)])?,
//! )?;
//! db.insert(
//!     "t",
//!     &[
//!         ("A".into(), SqlExpr::lit(DbVal::Int(1))),
//!         ("B".into(), SqlExpr::lit(DbVal::Str("hello".into()))),
//!     ],
//! )?;
//! let rows = db.select("t", &SqlExpr::eq(SqlExpr::col("A"), SqlExpr::lit(DbVal::Int(1))))?;
//! assert_eq!(rows.len(), 1);
//! # Ok::<(), ur_db::DbError>(())
//! ```

pub mod codec;
pub mod db;
pub mod error;
pub mod expr;
pub mod index;
pub mod mvcc;
pub mod plan;
pub mod recover;
pub mod retry;
pub mod snapshot;
pub mod table;
pub mod txn;
pub mod value;
pub mod wal;

pub use db::Db;
pub use error::DbError;
pub use expr::SqlExpr;
pub use index::{IndexDef, Row};
pub use mvcc::DbSnapshot;
pub use plan::{Access, Plan};
pub use retry::RetryConfig;
pub use snapshot::SNAPSHOT_FILE;
pub use table::{Schema, Table};
pub use txn::{DbStats, DurabilityConfig};
pub use value::{ColTy, DbVal};
pub use wal::{WalRecord, WAL_FILE};
