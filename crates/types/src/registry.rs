//! A minimal name-keyed component registry.
//!
//! Every composable interface in the workspace — timing specs and
//! substrates here in `fbd-types`, scheduler specs in `fbd-ctrl` — is
//! published through a [`Registry`] so a component can be selected by
//! its stable string name at `RunSpec` build time (DESIGN.md §14). Registries are built once behind a
//! `OnceLock` and hold `&'static` trait objects, so lookup is
//! allocation-free and a registered component lives for the whole
//! process.
//!
//! # Examples
//!
//! ```
//! use fbd_types::registry::Registry;
//!
//! let mut r: Registry<str> = Registry::new("greeting");
//! r.register("hello", "hello world");
//! assert_eq!(r.get("hello"), Some("hello world"));
//! assert_eq!(r.get("nope"), None);
//! assert_eq!(r.available(), "hello");
//! ```

/// An ordered name → component table. `T` is typically a trait object
/// type (`dyn Substrate`, `dyn SchedulerSpec`, …); entries keep their
/// registration order so listings are stable.
#[derive(Debug)]
pub struct Registry<T: ?Sized + 'static> {
    kind: &'static str,
    entries: Vec<(&'static str, &'static T)>,
}

impl<T: ?Sized + 'static> Registry<T> {
    /// An empty registry; `kind` names the component family in
    /// diagnostics (e.g. `"scheduler"`).
    pub fn new(kind: &'static str) -> Registry<T> {
        Registry {
            kind,
            entries: Vec::new(),
        }
    }

    /// Adds an entry under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered — duplicate names would
    /// make string selection ambiguous.
    pub fn register(&mut self, name: &'static str, entry: &'static T) {
        assert!(
            self.get(name).is_none(),
            "duplicate {} registration: `{name}`",
            self.kind
        );
        self.entries.push((name, entry));
    }

    /// Looks up a component by name.
    pub fn get(&self, name: &str) -> Option<&'static T> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, e)| *e)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|(n, _)| *n)
    }

    /// `(name, component)` pairs, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static T)> + '_ {
        self.entries.iter().copied()
    }

    /// The names joined for diagnostics: `"a|b|c"` — the list printed
    /// after "unknown …" CLI errors.
    pub fn available(&self) -> String {
        self.names().collect::<Vec<_>>().join("|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_order_follow_registration() {
        let mut r: Registry<str> = Registry::new("word");
        r.register("b", "bee");
        r.register("a", "ay");
        assert_eq!(r.get("a"), Some("ay"));
        assert_eq!(r.get("b"), Some("bee"));
        assert_eq!(r.get("c"), None);
        assert_eq!(r.names().collect::<Vec<_>>(), ["b", "a"]);
        assert_eq!(r.available(), "b|a");
    }

    #[test]
    #[should_panic(expected = "duplicate word registration")]
    fn duplicate_names_are_rejected() {
        let mut r: Registry<str> = Registry::new("word");
        r.register("a", "ay");
        r.register("a", "ay again");
    }
}
