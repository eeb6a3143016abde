//! Convenience re-exports for PPC programs.
//!
//! ```
//! use ppa_ppc::prelude::*;
//! let mut ppa = Ppa::square(4);
//! let x: Parallel<i64> = ppa.constant(0);
//! assert_eq!(x.dim(), ppa.dim());
//! let _ = Direction::South;
//! ```

pub use crate::error::PpcError;
pub use crate::ppa::{Parallel, Ppa, DEFAULT_WORD_BITS};
pub use crate::Result;
pub use ppa_machine::{Coord, Dim, Direction, Op, StepReport};
