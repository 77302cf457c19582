"""Every module-level ``functools`` memo in windmill is bounded.

A compile-and-run loop meets new words, heads, texts and configs with every
graph, so an unbounded memo grows for as long as the process runs. A memo of
a function without parameters holds one entry, so it may be unbounded
(``cli._build_parser``).
"""

import functools
import importlib
import inspect
import pkgutil

import windmill


def module_memos() -> dict:
    """Qualified name -> memo, for every memo a windmill module defines."""
    memos = {}
    for info in pkgutil.iter_modules(windmill.__path__):
        module = importlib.import_module(f"windmill.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                memos[f"{module.__name__}.{name}"] = value
    return memos


def unbounded(memos: dict) -> list:
    return [name for name, memo in memos.items() if memo.cache_info().maxsize is None
            and inspect.signature(memo.__wrapped__).parameters]


def test_every_module_memo_is_bounded():
    memos = module_memos()
    for name in ("windmill.pe._predecode", "windmill.arch.parse_arch_file",
                 "windmill.mapper._head", "windmill.cli._build_parser"):
        assert name in memos, name   # the walk sees memos of every module
    assert unbounded(memos) == []


def test_the_guard_flags_an_unbounded_memo_of_an_argument():
    @functools.cache
    def grows(key):
        return key

    @functools.cache
    def once():
        return 0

    bounded = functools.lru_cache(maxsize=4)(lambda key: key)
    assert unbounded({"grows": grows, "once": once, "bounded": bounded}) == ["grows"]
