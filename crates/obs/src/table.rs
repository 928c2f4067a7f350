/// Declares a layer's metric table: a struct of `Arc` handles and a
/// `metrics()` accessor whose first call registers every series into
/// [`registry()`](crate::registry) at once. Recording is then a field
/// read: no lookup, no allocation.
///
/// A group states one family once: its kind (`counter`, `gauge` or
/// `histogram`), name and help; the help becomes each field's rustdoc.
/// A field is one series. `[v in SET]` makes it an array over a closed
/// label set (outermost first; `SET` needs a const `len()`), binding
/// `v` to `&SET[i]` for the label values in `{ key: value, … }`, which
/// render with `to_string` in the order written.
///
/// `struct Name(Labels)` declares a table with no accessor. A parent
/// nests it with `table(Name) { field[b in SET] { key: b } }`; each
/// element's series carry the parent's labels first. `init |m| { … }`
/// after a table runs once, right after registration.
///
/// ```
/// igp_obs::metric_table! {
///     /// An example table.
///     pub struct ExampleMetrics {
///         counter("igp_example_requests_total", "Requests, by verb") {
///             pub requests_total[v in ["get", "put"]] { verb: v },
///         }
///         gauge("igp_example_depth", "Queue depth") { pub depth }
///     }
///     init |m| { m.depth.set(7) }
/// }
///
/// metrics().requests_total[1].inc();
/// let text = igp_obs::registry().render();
/// assert!(text.contains("igp_example_requests_total{verb=\"put\"} 1"));
/// assert!(text.contains("igp_example_depth 7"));
/// ```
#[macro_export]
macro_rules! metric_table {
    (@ty counter $args:tt) => { ::std::sync::Arc<$crate::Counter> };
    (@ty gauge $args:tt) => { ::std::sync::Arc<$crate::Gauge> };
    (@ty histogram $args:tt) => { ::std::sync::Arc<$crate::Histogram> };
    (@ty table ($sub:ident)) => { $sub };
    (@ty $kind:ident $args:tt [$x:ident in $set:expr] $($dims:tt)*) => {
        [$crate::metric_table!(@ty $kind $args $($dims)*); $set.len()]
    };

    (@new table ($sub:ident) $labels:expr;) => { $sub::register($labels) };
    (@new $kind:ident ($family:literal, $help:literal $(,)?) $labels:expr;) => {
        $crate::registry().$kind($family, $help, $labels)
    };
    (@new $kind:ident $args:tt $labels:expr; [$x:ident in $set:expr] $($dims:tt)*) => {
        ::std::array::from_fn(|i| {
            let $x = &$set[i];
            $crate::metric_table!(@new $kind $args $labels; $($dims)*)
        })
    };

    (@doc table $args:tt) => { "" };
    (@doc $kind:ident ($family:literal, $help:literal $(,)?)) => {
        concat!("`", $family, "`: ", $help, ".\n")
    };

    (@table [$($head:tt)*] $name:ident
        $($kind:ident $args:tt {
            $($(#[$meta:meta])* $vis:vis $field:ident $([$x:ident in $set:expr])*
                $({ $($key:ident: $val:expr),* $(,)? })?),* $(,)?
        })*
    ) => {
        $($head)* struct $name {
            $($(
                #[doc = $crate::metric_table!(@doc $kind $args)]
                $(#[$meta])*
                $vis $field: $crate::metric_table!(@ty $kind $args $([$x in $set])*),
            )*)*
        }

        impl $name {
            fn register(prefix: $crate::Labels) -> Self {
                $name {
                    $($(
                        $field: $crate::metric_table!(@new $kind $args
                            [prefix.clone(), vec![$($((stringify!($key), $val.to_string())),*)?]]
                                .concat();
                            $([$x in $set])*),
                    )*)*
                }
            }
        }
    };

    ($(#[$meta:meta])* $vis:vis struct $name:ident(Labels) { $($groups:tt)* }) => {
        $crate::metric_table!(@table [$(#[$meta])* $vis] $name $($groups)*);
    };

    ($(#[$meta:meta])* $vis:vis struct $name:ident { $($groups:tt)* }
        $(init |$m:ident| $init:block)?
    ) => {
        $crate::metric_table!(@table [$(#[$meta])* $vis] $name $($groups)*);

        #[doc = concat!("The [`", stringify!($name), "`] handles; the first call registers them.")]
        pub fn metrics() -> &'static $name {
            static M: ::std::sync::OnceLock<$name> = ::std::sync::OnceLock::new();
            M.get_or_init(|| {
                let m = $name::register(::std::vec::Vec::new());
                $(let $m = &m; $init)?
                m
            })
        }
    };
}
