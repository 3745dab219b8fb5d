//! A *cell* of Figure 1: one vendor × model × language combination, with its
//! rating(s), routes, description, references, and rationale.
//!
//! Two features of the paper's figure are modelled explicitly:
//!
//! * **Shared descriptions** — 51 cells are covered by 44 unique
//!   descriptions; e.g. description 6 ("SYCL is a C++-based programming
//!   model ... does not support Fortran") covers the SYCL·Fortran cell of
//!   all three vendors. Each cell stores its paper description number
//!   ([`Cell::description_id`]), and several cells may share one.
//! * **Double ratings** — §5 discusses cells that carry two symbols, e.g.
//!   Python on NVIDIA (vendor full support *plus* non-vendor good support
//!   from the open-source ecosystem) and CUDA C++ on Intel (SYCLomatic
//!   translation *plus* the chipStar research project). A cell therefore has
//!   a primary and an optional secondary [`Support`].

use crate::route::Route;
use crate::support::Support;
use crate::taxonomy::{Language, Model, Vendor};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The coordinates of a cell in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId {
    /// The GPU vendor (row).
    pub vendor: Vendor,
    /// The programming model (column).
    pub model: Model,
    /// The language sub-column.
    pub language: Language,
}

impl CellId {
    /// Construct a cell coordinate.
    pub fn new(vendor: Vendor, model: Model, language: Language) -> Self {
        Self { vendor, model, language }
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} · {} · {}", self.vendor, self.model, self.language)
    }
}

/// One combination of Figure 1 with all the knowledge the paper attaches.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Where in the matrix this cell sits.
    pub id: CellId,
    /// The paper's description number (1–44, §4). Shared-description cells
    /// (4, 6, 14, 16) repeat the same number under several vendors.
    pub description_id: u8,
    /// Primary support category — the main symbol in the figure cell.
    pub support: Support,
    /// Secondary support category for double-rated cells (§5).
    pub secondary_support: Option<Support>,
    /// A condensed version of the paper's §4 description text.
    pub description: &'static str,
    /// Why this particular category was assigned — the figure itself is an
    /// image, so where the text leaves latitude we record the reasoning.
    pub rationale: &'static str,
    /// The concrete toolchain routes realising the support (possibly empty
    /// for `Support::None` cells).
    pub routes: Vec<Route>,
    /// Bibliography keys (`[n]` numbers from the paper) backing the cell.
    pub references: Vec<u8>,
}

impl Cell {
    /// The primary rating of the cell.
    pub fn primary_support(&self) -> Support {
        self.support
    }

    /// The best rating the cell carries (primary or secondary).
    pub fn best_support(&self) -> Support {
        match self.secondary_support {
            Some(s) => self.support.min(s),
            None => self.support,
        }
    }

    /// Does this cell carry two symbols in the figure?
    pub fn is_double_rated(&self) -> bool {
        self.secondary_support.is_some()
    }

    /// Routes that a scientific programmer can actually adopt today.
    pub fn viable_routes(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter().filter(|r| r.is_viable())
    }

    /// Is there *any* way (viable or not) to use this combination?
    pub fn has_any_route(&self) -> bool {
        !self.routes.is_empty()
    }

    /// Routes a runtime frontend can actually drive end-to-end
    /// (see [`Route::is_executable`]). Empty for cells whose support is
    /// purely source-translation, unmaintained, or research-shim class —
    /// the cells a frontend must *refuse* rather than emulate.
    pub fn executable_routes(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter().filter(|r| r.is_executable())
    }

    /// The figure symbol(s) for this cell, e.g. `●` or `●◍` for a
    /// double-rated cell.
    pub fn symbols(&self) -> String {
        match self.secondary_support {
            Some(s) => format!("{}{}", self.support.symbol(), s.symbol()),
            None => self.support.symbol().to_owned(),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.description_id, self.id, self.support)
    }
}

/// Builder for [`Cell`] used by the dataset module; keeps the dataset terse.
pub struct CellBuilder {
    cell: Cell,
}

impl CellBuilder {
    /// Start a cell with its coordinates, description number, primary
    /// rating, and description text.
    pub fn new(
        id: CellId,
        description_id: u8,
        support: Support,
        description: &'static str,
    ) -> Self {
        Self {
            cell: Cell {
                id,
                description_id,
                support,
                secondary_support: None,
                description,
                rationale: "",
                routes: Vec::new(),
                references: Vec::new(),
            },
        }
    }

    /// Attach the secondary rating of a double-rated cell.
    pub fn also(mut self, support: Support) -> Self {
        self.cell.secondary_support = Some(support);
        self
    }

    /// Record the rating rationale.
    pub fn because(mut self, rationale: &'static str) -> Self {
        self.cell.rationale = rationale;
        self
    }

    /// Add a route.
    pub fn route(mut self, route: Route) -> Self {
        self.cell.routes.push(route);
        self
    }

    /// Add bibliography references.
    pub fn refs(mut self, refs: &[u8]) -> Self {
        self.cell.references.extend_from_slice(refs);
        self
    }

    /// Finish the cell.
    pub fn build(self) -> Cell {
        self.cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::Provider;
    use crate::route::{Completeness, Directness, RouteKind};

    fn cell_with(support: Support, secondary: Option<Support>) -> Cell {
        let mut b = CellBuilder::new(
            CellId::new(Vendor::Nvidia, Model::Cuda, Language::Cpp),
            1,
            support,
            "test",
        );
        if let Some(s) = secondary {
            b = b.also(s);
        }
        b.build()
    }

    #[test]
    fn best_support_picks_the_better_symbol() {
        let c = cell_with(Support::Full, Some(Support::NonVendorGood));
        assert_eq!(c.best_support(), Support::Full);
        let c = cell_with(Support::Limited, Some(Support::IndirectGood));
        assert_eq!(c.best_support(), Support::IndirectGood);
        let c = cell_with(Support::Some, None);
        assert_eq!(c.best_support(), Support::Some);
    }

    #[test]
    fn double_rating_symbols_concatenate() {
        let c = cell_with(Support::Full, Some(Support::NonVendorGood));
        assert!(c.is_double_rated());
        assert_eq!(c.symbols(), "●◍");
        let c = cell_with(Support::None, None);
        assert_eq!(c.symbols(), "✕");
    }

    #[test]
    fn builder_accumulates_routes_and_refs() {
        let c = CellBuilder::new(
            CellId::new(Vendor::Amd, Model::Hip, Language::Cpp),
            20,
            Support::Full,
            "HIP is native on AMD",
        )
        .because("native model")
        .route(Route::new(
            "hipcc",
            RouteKind::Compiler,
            Provider::DeviceVendor,
            Directness::Direct,
            Completeness::Complete,
        ))
        .refs(&[12])
        .build();
        assert_eq!(c.routes.len(), 1);
        assert_eq!(c.references, vec![12]);
        assert_eq!(c.rationale, "native model");
        assert!(c.has_any_route());
        assert_eq!(c.viable_routes().count(), 1);
    }

    #[test]
    fn display_mentions_description_id_and_axes() {
        let c = cell_with(Support::Full, None);
        let s = c.to_string();
        assert!(s.contains("[1]"));
        assert!(s.contains("NVIDIA"));
        assert!(s.contains("CUDA"));
        assert!(s.contains("full support"));
    }
}
