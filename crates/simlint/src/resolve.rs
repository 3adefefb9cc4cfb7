//! Workspace-wide name resolution: module paths, `use`-maps, and a
//! symbol index of function signatures across all crates.
//!
//! Canonical paths use the *directory* names under `crates/` (`fs`,
//! `core`, `trace`, ...), with the published import names
//! (`oocfs`, `oocnvm_core`, `ooctrace`, ...) normalised onto them, so
//! a call in `ooc` to `oocfs::transform::run` and the definition in
//! `crates/fs/src/transform.rs` meet at the same key.

use crate::ast::{self, File, FnDef, Item, ItemKind, Param, TyInfo, UseEntry};
use crate::lexer;
use crate::parser;
use std::collections::BTreeMap;

/// Maps a crate's import name (as written in `use` paths) to its
/// directory name under `crates/` (the canonical key). Identity for
/// everything not listed.
pub fn canonical_crate(import_name: &str) -> &str {
    match import_name {
        "oocfs" => "fs",
        "ooctrace" => "trace",
        "oocnvm_core" => "core",
        "oocnvm_bench" => "bench",
        _ => import_name,
    }
}

/// Computes the module path for a workspace-relative file path:
/// `crates/fs/src/catalog.rs` → `[fs, catalog]`,
/// `crates/ssd/src/qos/mod.rs` → `[ssd, qos]`,
/// `src/reliability.rs` → `[oocnvm, reliability]`.
/// Binary roots (`src/bin/x.rs`, `src/main.rs`) are their own crate
/// roots but are keyed under the owning crate for uniqueness.
pub fn module_path(path: &str, krate: &str) -> Vec<String> {
    let tail = path
        .rsplit_once("src/")
        .map(|(_, t)| t)
        .unwrap_or(path)
        .trim_end_matches(".rs");
    let mut segs = vec![krate.to_string()];
    for part in tail.split('/') {
        match part {
            "lib" | "main" | "mod" | "" => {}
            other => segs.push(other.to_string()),
        }
    }
    segs
}

/// One parsed in-scope file: the single front-end result every pass
/// reads.
pub struct FileAst {
    /// Workspace-relative path.
    pub path: String,
    /// Crate directory name (see [`crate::source_crate`]).
    pub krate: String,
    /// Module path segments (starting with the crate name).
    pub module: Vec<String>,
    /// The parsed item tree.
    pub ast: File,
    /// Per-line `#[cfg(test)]` flags (1-based line `n` is `in_test[n-1]`).
    pub in_test: Vec<bool>,
    /// Import map: binding name → canonical full path.
    pub uses: BTreeMap<String, Vec<String>>,
}

impl FileAst {
    /// The one front-end pass over a file's source: cleans it, then
    /// parses the AST (through token trees) and the import map.
    pub fn parse(path: &str, krate: &str, source: &str) -> FileAst {
        let clean = lexer::clean_source(source);
        let file = ast::parse_file(&parser::parse_trees(&clean));
        let module = module_path(path, krate);
        let mut uses = BTreeMap::new();
        collect_uses(&file.items, krate, &module, &mut uses);
        FileAst {
            path: path.to_string(),
            krate: krate.to_string(),
            module,
            ast: file,
            in_test: clean.lines.iter().map(|l| l.in_test).collect(),
            uses,
        }
    }

    /// Is the 1-based line inside a `#[cfg(test)]` region?
    pub fn line_in_test(&self, line: usize) -> bool {
        line >= 1 && self.in_test.get(line - 1).copied().unwrap_or(false)
    }

    /// Resolves an expression path to canonical segments:
    /// * first segment found in the `use`-map → substituted;
    /// * `crate`/`self`/`super` → expanded against this module;
    /// * known import names → canonicalised;
    /// * anything else (locals, inherent names) → unchanged.
    pub fn resolve(&self, segs: &[String]) -> Vec<String> {
        let Some(first) = segs.first() else {
            return Vec::new();
        };
        let mut out: Vec<String> = match first.as_str() {
            "crate" => vec![self.krate.clone()],
            "self" => self.module.clone(),
            "super" => {
                let mut m = self.module.clone();
                m.pop();
                m
            }
            _ => {
                if let Some(full) = self.uses.get(first) {
                    full.clone()
                } else {
                    vec![canonical_crate(first).to_string()]
                }
            }
        };
        out.extend(segs.iter().skip(1).cloned());
        out
    }
}

fn collect_uses(
    items: &[Item],
    krate: &str,
    module: &[String],
    out: &mut BTreeMap<String, Vec<String>>,
) {
    for item in items {
        match &item.kind {
            ItemKind::Use(entries) => {
                for UseEntry { path, alias } in entries {
                    if alias.is_empty() || path.is_empty() {
                        continue; // glob imports: unresolvable, skip
                    }
                    let mut canon: Vec<String> = Vec::new();
                    match path[0].as_str() {
                        "crate" => canon.push(krate.to_string()),
                        "self" => canon.extend(module.iter().cloned()),
                        "super" => {
                            canon.extend(module.iter().cloned());
                            canon.pop();
                        }
                        first => canon.push(canonical_crate(first).to_string()),
                    }
                    canon.extend(path.iter().skip(1).cloned());
                    out.insert(alias.clone(), canon);
                }
            }
            ItemKind::Mod { items, .. } => {
                // Nested mod uses land in the same flat map: good enough
                // for rule purposes (shadowing across mods is rare).
                collect_uses(items, krate, module, out);
            }
            _ => {}
        }
    }
}

/// A function signature in the workspace symbol index.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Canonical path, e.g. `fs::transform::run` or `ssd::Device::read`.
    pub path: String,
    /// Bare function name.
    pub name: String,
    /// Parameters (`self` receivers included).
    pub params: Vec<Param>,
    /// Return type.
    pub ret: Option<TyInfo>,
}

/// Workspace-wide symbol index of function signatures.
#[derive(Debug, Default)]
pub struct Index {
    /// Canonical path → signature.
    pub fns: BTreeMap<String, FnSig>,
    /// Bare name → canonical paths (for lenient lookup when the name is
    /// unambiguous workspace-wide).
    pub by_name: BTreeMap<String, Vec<String>>,
}

impl Index {
    /// Builds the index over parsed files.
    pub fn build(files: &[FileAst]) -> Index {
        let mut index = Index::default();
        for file in files {
            index.add_items(&file.ast.items, &file.module, None, file);
        }
        index
    }

    fn add_items(
        &mut self,
        items: &[Item],
        module: &[String],
        self_ty: Option<&str>,
        file: &FileAst,
    ) {
        for item in items {
            if item.cfg_test || file.line_in_test(item.span.line) {
                continue;
            }
            match &item.kind {
                ItemKind::Fn(fd) => self.add_fn(fd, module, self_ty),
                ItemKind::Mod { name, items } => {
                    let mut sub = module.to_vec();
                    sub.push(name.clone());
                    self.add_items(items, &sub, None, file);
                }
                ItemKind::Impl { self_ty, items } => {
                    self.add_items(items, module, Some(self_ty), file);
                }
                ItemKind::Trait { items, .. } => {
                    self.add_items(items, module, None, file);
                }
                _ => {}
            }
        }
    }

    fn add_fn(&mut self, fd: &FnDef, module: &[String], self_ty: Option<&str>) {
        let mut segs = module.to_vec();
        if let Some(ty) = self_ty {
            if !ty.is_empty() {
                segs.push(ty.to_string());
            }
        }
        segs.push(fd.name.clone());
        let path = segs.join("::");
        let sig = FnSig {
            path: path.clone(),
            name: fd.name.clone(),
            params: fd.params.clone(),
            ret: fd.ret.clone(),
        };
        self.by_name
            .entry(fd.name.clone())
            .or_default()
            .push(path.clone());
        self.fns.insert(path, sig);
    }

    /// Looks up a *resolved* call path. Tries, in order: the exact
    /// canonical key; a suffix match (module prefixes are often
    /// partial, e.g. `sweep::Sweep::run` vs `bench::sweep::Sweep::run`);
    /// a unique match on the crate root plus `Type::fn` (a call through
    /// a crate-root re-export: `ssd::SimBlockDevice::new` for
    /// `ssd::blockdev::SimBlockDevice::new`); and finally the
    /// unambiguous bare name.
    pub fn lookup(&self, resolved: &[String]) -> Option<&FnSig> {
        if resolved.is_empty() {
            return None;
        }
        let key = resolved.join("::");
        if let Some(sig) = self.fns.get(&key) {
            return Some(sig);
        }
        if resolved.len() >= 2 {
            let suffix = format!("::{key}");
            let mut hit = None;
            for (path, sig) in &self.fns {
                if path.ends_with(&suffix) {
                    if hit.is_some() {
                        return None; // ambiguous
                    }
                    hit = Some(sig);
                }
            }
            if hit.is_some() {
                return hit;
            }
        }
        if let [krate, .., ty, name] = resolved {
            let prefix = format!("{krate}::");
            let suffix = format!("::{ty}::{name}");
            let mut hits = self
                .fns
                .iter()
                .filter(|(path, _)| path.starts_with(&prefix) && path.ends_with(&suffix));
            if let (Some((_, sig)), None) = (hits.next(), hits.next()) {
                return Some(sig);
            }
        }
        let name = resolved.last()?;
        match self.by_name.get(name).map(Vec::as_slice) {
            Some([only]) => self.fns.get(only),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_ast(path: &str, krate: &str, src: &str) -> FileAst {
        FileAst::parse(path, krate, src)
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_path("crates/fs/src/lib.rs", "fs"), vec!["fs"]);
        assert_eq!(
            module_path("crates/fs/src/catalog.rs", "fs"),
            vec!["fs", "catalog"]
        );
        assert_eq!(
            module_path("crates/ssd/src/qos/mod.rs", "ssd"),
            vec!["ssd", "qos"]
        );
        assert_eq!(
            module_path("src/reliability.rs", "oocnvm"),
            vec!["oocnvm", "reliability"]
        );
    }

    #[test]
    fn use_map_resolves_aliases_and_crate_names() {
        let f = file_ast(
            "crates/ooc/src/x.rs",
            "ooc",
            "use std::collections::HashMap as Fast;\nuse oocfs::transform;\nuse crate::store::Panel;\n",
        );
        assert_eq!(
            f.uses.get("Fast"),
            Some(&vec!["std".into(), "collections".into(), "HashMap".into()])
        );
        assert_eq!(
            f.uses.get("transform"),
            Some(&vec!["fs".into(), "transform".into()])
        );
        assert_eq!(
            f.uses.get("Panel"),
            Some(&vec!["ooc".into(), "store".into(), "Panel".into()])
        );
        // Resolution through the map.
        assert_eq!(
            f.resolve(&["transform".into(), "run".into()]),
            vec!["fs".to_string(), "transform".into(), "run".into()]
        );
        // Unresolved locals stay put.
        assert_eq!(f.resolve(&["x".into()]), vec!["x".to_string()]);
    }

    #[test]
    fn index_finds_fns_across_impls_and_mods() {
        let a = file_ast(
            "crates/fs/src/transform.rs",
            "fs",
            "pub struct T;\nimpl T {\n  pub fn run(&self, n_bytes: u64) -> Nanos { n_bytes }\n}\npub fn free(x: u64) -> u64 { x }\n",
        );
        let idx = Index::build(&[a]);
        let sig = idx
            .lookup(&["fs".into(), "transform".into(), "T".into(), "run".into()])
            .expect("impl fn indexed");
        assert_eq!(sig.params.len(), 2);
        assert_eq!(sig.params[1].name, "n_bytes");
        assert_eq!(sig.ret.as_ref().map(|t| t.base.as_str()), Some("Nanos"));
        // Suffix lookup: partial module prefix.
        assert!(idx.lookup(&["T".into(), "run".into()]).is_some());
        // Unambiguous bare name.
        assert!(idx.lookup(&["free".into()]).is_some());
    }

    #[test]
    fn calls_through_a_crate_root_re_export_resolve() {
        // `use ssd::SimBlockDevice;` resolves `SimBlockDevice::new` to
        // `ssd::SimBlockDevice::new`, but the fn's canonical path names
        // its module, and `new` is never a unique bare name.
        let ctor = |path: &str, krate: &str, ty: &str| {
            let src =
                format!("pub struct {ty};\nimpl {ty} {{\n  pub fn new() -> {ty} {{ {ty} }}\n}}\n");
            file_ast(path, krate, &src)
        };
        let caller = file_ast(
            "crates/ufs/src/replay.rs",
            "ufs",
            "use ssd::SimBlockDevice;\n",
        );
        let resolved = caller.resolve(&["SimBlockDevice".into(), "new".into()]);
        assert_eq!(resolved, ["ssd", "SimBlockDevice", "new"]);
        // A type of the same name in another crate does not count.
        let idx = Index::build(&[
            ctor("crates/ssd/src/blockdev.rs", "ssd", "SimBlockDevice"),
            ctor("crates/ssd/src/device.rs", "ssd", "SsdDevice"),
            ctor("crates/ufs/src/fs.rs", "ufs", "SimBlockDevice"),
        ]);
        let sig = idx.lookup(&resolved).expect("re-exported fn resolves");
        assert_eq!(sig.path, "ssd::blockdev::SimBlockDevice::new");
        // Two such fns under one crate root stay unresolved.
        let idx = Index::build(&[
            ctor("crates/ssd/src/blockdev.rs", "ssd", "SimBlockDevice"),
            ctor("crates/ssd/src/copy.rs", "ssd", "SimBlockDevice"),
        ]);
        assert!(idx.lookup(&resolved).is_none());
    }

    #[test]
    fn test_gated_fns_stay_out_of_the_index() {
        let a = file_ast(
            "crates/fs/src/x.rs",
            "fs",
            "#[cfg(test)]\nmod tests {\n  pub fn helper() {}\n}\npub fn real() {}\n",
        );
        let idx = Index::build(&[a]);
        assert!(idx.lookup(&["helper".into()]).is_none());
        assert!(idx.lookup(&["real".into()]).is_some());
    }
}
