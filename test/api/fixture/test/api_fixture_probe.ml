let tested = Api_fixture.Exporter.tested
let opts = Api_fixture.Exporter.opts ~tested:2 ()
