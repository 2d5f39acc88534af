//! Structured serving-path errors.

use crate::fault::Component;

/// What went wrong on the serving path — the structured replacement for
/// `expect()`-driven aborts. Every variant names the component boundary it
/// came from, so batch callers can report per-question failures precisely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SageError {
    /// All retry attempts at one component failed.
    ComponentFailed {
        /// The failing component.
        component: Component,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The component had failed five times in a row in this query, which
    /// opens its circuit; the primary was skipped.
    CircuitOpen {
        /// The component whose circuit is open.
        component: Component,
    },
    /// A response failed validation (truncated / corrupt payload).
    Corrupted {
        /// The component that produced the corrupt response.
        component: Component,
    },
    /// A worker or component panicked; the payload (if any) is preserved.
    Panicked {
        /// Human-readable panic context.
        detail: String,
    },
    /// A deadline or token budget ran out at a pipeline stage; the query
    /// continued on a browned-out configuration instead of aborting.
    BudgetExhausted {
        /// The pipeline stage whose budget check fired.
        stage: &'static str,
    },
}

impl SageError {
    /// The component involved, when the error is component-scoped.
    pub fn component(&self) -> Option<Component> {
        match self {
            SageError::ComponentFailed { component, .. }
            | SageError::CircuitOpen { component }
            | SageError::Corrupted { component } => Some(*component),
            SageError::Panicked { .. } | SageError::BudgetExhausted { .. } => None,
        }
    }

    /// Build a [`SageError::Panicked`] from a `catch_unwind` payload,
    /// extracting the `&str` / `String` message when present.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let detail = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        };
        SageError::Panicked { detail }
    }
}

impl std::fmt::Display for SageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SageError::ComponentFailed { component, attempts } => {
                write!(f, "{component} failed after {attempts} attempt(s)")
            }
            SageError::CircuitOpen { component } => {
                write!(f, "{component} circuit breaker is open")
            }
            SageError::Corrupted { component } => {
                write!(f, "{component} returned a corrupt response")
            }
            SageError::Panicked { detail } => write!(f, "panicked: {detail}"),
            SageError::BudgetExhausted { stage } => {
                write!(f, "budget exhausted at the {stage} stage")
            }
        }
    }
}

impl std::error::Error for SageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_component() {
        let e = SageError::ComponentFailed { component: Component::Reader, attempts: 3 };
        assert_eq!(e.to_string(), "reader failed after 3 attempt(s)");
        assert_eq!(e.component(), Some(Component::Reader));
    }

    #[test]
    fn panic_payloads_are_extracted() {
        let e = SageError::from_panic(Box::new("boom"));
        assert_eq!(e, SageError::Panicked { detail: "boom".to_string() });
        let e = SageError::from_panic(Box::new("injected".to_string()));
        assert!(e.to_string().contains("injected"));
        let e = SageError::from_panic(Box::new(42usize));
        assert!(e.to_string().contains("non-string"));
        assert_eq!(e.component(), None);
    }
}
